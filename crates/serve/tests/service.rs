//! Integration tests for the service core and the wire loop: admission
//! control, failure-budget fusing with cross-tenant isolation under
//! injected faults, drain without job loss, warm restarts over a shared
//! on-disk cache, and a full client↔server conversation over a
//! socketpair.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use td_serve::{
    AdmitError, Client, ClientError, ConnectionOutcome, Service, ServiceConfig, TenantConfig,
};
use td_support::fault;

/// A payload module whose text varies with `i` (distinct fingerprints).
fn payload(i: usize) -> String {
    format!(
        "module {{\n  %a = arith.constant {i} : index\n  %b = arith.constant {} : index\n  \
         %s = \"arith.addi\"(%a, %b) : (index, index) -> index\n}}",
        i + 1
    )
}

/// A two-step schedule: match every `arith.addi`, annotate it.
fn script() -> String {
    r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %adds = "transform.match_op"(%root) {name = "arith.addi", select = "all"}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%adds) {name = "seen"} : (!transform.any_op) -> ()
  }
}"#
    .to_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("td-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `"key":<u64>` of tenant `name` in a `STATS` body.
fn tenant_counter(stats: &str, name: &str, key: &str) -> u64 {
    let tenant = stats
        .find(&format!("\"name\":\"{name}\""))
        .unwrap_or_else(|| panic!("no tenant {name}: {stats}"));
    stats[tenant..]
        .split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {key} counter for {name}: {stats}"))
}

/// Counter `name` of the live internal registry, as `STATS` reports it
/// under `internal.counters` (absent, so 0, until first counted).
fn internal_counter(service: &Service, name: &str) -> u64 {
    let stats = service.stats_json();
    let counters = stats
        .split("\"internal\":{\"counters\":{")
        .nth(1)
        .unwrap_or_else(|| panic!("STATS lacks internal.counters: {stats}"));
    let counters = &counters[..counters.find('}').unwrap_or(counters.len())];
    counters
        .split(&format!("\"{name}\":"))
        .nth(1)
        .map_or(0, |rest| {
            rest.split(',')
                .next()
                .unwrap_or(rest)
                .parse()
                .expect("counter value")
        })
}

/// The daemon-wide count of bisections run.
fn bisections(service: &Service) -> u64 {
    internal_counter(service, "sched.bisections")
}

/// The daemon-wide count of top-level rollbacks.
fn rolled_back(service: &Service) -> u64 {
    internal_counter(service, "interp.rolled_back")
}

/// A loop payload for [`FAILING_SCRIPT`], varied by `i`.
fn loop_payload(i: usize) -> String {
    let extent = 64 + i;
    format!(
        r#"module {{
  func.func @f(%m: memref<{extent}xf32>) {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {{
      %v = "memref.load"(%m, %i) : (memref<{extent}xf32>, index) -> f32
      "test.use"(%v) : (f32) -> ()
    }}
    func.return
  }}
}}"#
    )
}

/// Step 3 of this 5-step schedule fails (no `nonexistent.op` in the
/// payload); steps 4-5 are innocent bystanders a repro must drop.
const FAILING_SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loop) {name = "tagged"} : (!transform.any_op) -> ()
    %missing = "transform.match_op"(%root) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%missing) {name = "never"} : (!transform.any_op) -> ()
    "transform.annotate"(%root) {name = "also_never"} : (!transform.any_op) -> ()
  }
}"#;

/// The `bisect` artifact text for [`FAILING_SCRIPT`] over `payload`,
/// rendered from the bisector directly.
fn expected_bisect_text(payload: &str) -> String {
    let make_ctx = || {
        let mut ctx = td_ir::Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        td_transform::register_transform_dialect(&mut ctx);
        ctx
    };
    let outcome = td_transform::bisect_schedule_failure(
        &td_transform::InterpEnv::standard(),
        &make_ctx,
        FAILING_SCRIPT,
        payload,
        "main",
    )
    .expect("the failure reproduces");
    assert_eq!(outcome.failing_prefix, 3);
    format!(
        "failing prefix: {} of {} step(s) ({} probe(s))\nfailure: {}\n{}",
        outcome.failing_prefix,
        outcome.total_steps,
        outcome.probes,
        outcome.message,
        outcome.minimized_script,
    )
}

/// Serves `service` on one end of a socketpair; returns the client for
/// the other end and the server thread.
fn connect(
    service: &Arc<Service>,
) -> (
    Client<UnixStream, UnixStream>,
    std::thread::JoinHandle<std::io::Result<ConnectionOutcome>>,
) {
    let (client_side, server_side) = UnixStream::pair().unwrap();
    let service = Arc::clone(service);
    let server = std::thread::spawn(move || {
        let mut reader = server_side.try_clone().unwrap();
        let mut writer = server_side;
        td_serve::handle_connection(&service, &mut reader, &mut writer)
    });
    (
        Client::new(client_side.try_clone().unwrap(), client_side),
        server,
    )
}

fn expect_not_found<T: std::fmt::Debug>(answer: Result<T, ClientError>) {
    match answer {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code.as_deref(), Some("not_found")),
        other => panic!("expected not_found, got {other:?}"),
    }
}

#[test]
fn submit_wait_runs_a_job_end_to_end() {
    let service = Service::start(ServiceConfig::new(vec![TenantConfig::new("solo")])).unwrap();
    let done = service
        .submit_wait("solo", script(), payload(0), "main")
        .unwrap();
    let output = done.result.expect("job must succeed");
    assert!(output.module_text.contains("seen"), "not annotated");
    assert_eq!(done.tenant, "solo");
    assert!(service.artifact(done.job_id, "report").is_some());
    service.drain();
}

#[test]
fn tenant_policies_travel_with_their_jobs() {
    let _guard = fault::test_guard();
    // One worker, one engine, three tenants in lanes of their own: each
    // lane's first step fails silenceably, except `laggy`'s, whose steps
    // sleep past its 20 ms deadline.
    fault::set_plan(Some(
        fault::FaultPlan::parse(
            "silenceable@step=1,job=21;silenceable@step=1,job=22;sleep@ms=25,job=23",
        )
        .unwrap(),
    ));
    let service = Service::start(
        ServiceConfig::new(vec![
            TenantConfig::new("patient")
                .with_fault_lane(21)
                .with_max_attempts(3),
            TenantConfig::new("strict")
                .with_fault_lane(22)
                .with_max_attempts(1),
            TenantConfig::new("laggy")
                .with_fault_lane(23)
                .with_deadline_ms(20),
        ])
        .with_workers(1),
    )
    .unwrap();
    let mut submitted = Vec::new();
    for round in 0..2 {
        for (i, tenant) in ["patient", "strict", "laggy"].into_iter().enumerate() {
            let id = service
                .submit(tenant, script(), payload(10 * round + i), "main")
                .unwrap();
            submitted.push((tenant, id));
        }
    }
    for (tenant, id) in submitted {
        let done = service.wait(id);
        assert_eq!(done.tenant, tenant);
        match (tenant, &done.result) {
            ("patient", Ok(output)) => assert_eq!(output.attempts, 2, "retried once"),
            (
                "strict",
                Err(td_sched::JobError::Transform {
                    silenceable: true, ..
                }),
            ) => {}
            ("laggy", Err(td_sched::JobError::DeadlineExceeded)) => {}
            (tenant, result) => panic!("{tenant}: unexpected {result:?}"),
        }
    }
    fault::set_plan(None);

    // A SUBMIT's own txn_mode rides on the job into its bisection: every
    // probe of a failing schedule rolls back under `always` and none does
    // under the request's `never`.
    let bisection_rollbacks = |txn: Option<td_sched::TxnMode>, i: usize| {
        let (id, _) = service
            .submit_with_options("strict", FAILING_SCRIPT, loop_payload(i), "main", None, txn)
            .unwrap();
        assert!(service.wait(id).result.is_err());
        let before = rolled_back(&service);
        assert!(service.artifact(id, "bisect").is_some());
        rolled_back(&service) - before
    };
    assert_eq!(bisection_rollbacks(Some(td_sched::TxnMode::Never), 0), 0);
    assert!(bisection_rollbacks(None, 1) > 0, "the tenant's own mode");
    service.drain();
}

#[test]
fn unknown_tenants_and_draining_services_are_refused() {
    let service = Service::start(ServiceConfig::new(vec![TenantConfig::new("solo")])).unwrap();
    assert_eq!(
        service.submit("ghost", script(), payload(0), "main"),
        Err(AdmitError::UnknownTenant("ghost".to_owned()))
    );
    service.drain();
    assert_eq!(
        service.submit("solo", script(), payload(0), "main"),
        Err(AdmitError::Draining)
    );
}

#[test]
fn drain_loses_no_admitted_job() {
    // Satellite: close the queue, join the workers, flush the lanes — and
    // every job admitted before the drain still delivers its result.
    let service =
        Service::start(ServiceConfig::new(vec![TenantConfig::new("bulk")]).with_workers(2))
            .unwrap();
    let ids: Vec<u64> = (0..12)
        .map(|i| {
            service
                .submit("bulk", script(), payload(i), "main")
                .unwrap()
        })
        .collect();
    let summary = service.drain();
    assert_eq!(summary.jobs, 12, "drain must flush every admitted job");
    assert_eq!(summary.workers, 2);
    for id in ids {
        let done = service
            .try_take(id)
            .unwrap_or_else(|| panic!("job {id} lost in drain"));
        assert!(done.result.is_ok(), "job {id} failed: {:?}", done.result);
    }
    // Idempotent: a second drain is a no-op with the same totals.
    assert_eq!(service.drain().jobs, 12);
}

#[test]
fn failure_budget_fuses_one_tenant_and_spares_the_rest() {
    let _guard = fault::test_guard();
    // `definite@job=7` fires in fault lane 7 only: tenant `chaos` runs
    // there, tenant `clean` does not — same process, same workers, same
    // shared cache.
    fault::set_plan(Some(fault::FaultPlan::parse("definite@job=7").unwrap()));
    let service = Service::start(ServiceConfig::new(vec![
        TenantConfig::new("chaos")
            .with_fault_lane(7)
            .with_failure_budget(2),
        TenantConfig::new("clean").with_fault_lane(11),
    ]))
    .unwrap();

    let mut chaos_failures = 0;
    for i in 0..2 {
        let done = service
            .submit_wait("chaos", script(), payload(i), "main")
            .unwrap();
        assert!(done.result.is_err(), "injected fault must fail job {i}");
        chaos_failures += 1;
    }
    assert_eq!(chaos_failures, 2);
    // The budget is spent: the tenant is fused off at admission.
    assert_eq!(
        service.submit("chaos", script(), payload(9), "main"),
        Err(AdmitError::BudgetExhausted)
    );

    // The clean tenant is untouched: same results as a fault-free run.
    let faulted: Vec<String> = (0..4)
        .map(|i| {
            service
                .submit_wait("clean", script(), payload(i), "main")
                .unwrap()
                .result
                .expect("clean tenant must be isolated from the fault")
                .module_text
        })
        .collect();
    service.drain();
    fault::set_plan(None);

    let baseline_service =
        Service::start(ServiceConfig::new(vec![TenantConfig::new("clean")])).unwrap();
    let baseline: Vec<String> = (0..4)
        .map(|i| {
            baseline_service
                .submit_wait("clean", script(), payload(i), "main")
                .unwrap()
                .result
                .unwrap()
                .module_text
        })
        .collect();
    baseline_service.drain();
    assert_eq!(
        faulted, baseline,
        "the unfaulted tenant's outputs must be byte-identical with and without \
         the other tenant's fault plan"
    );
}

/// A cached failure is a failure of the tenant's like an executed one: a
/// fused tenant fuses on the same count whether its failures ran or were
/// answered from the cache.
#[test]
fn a_tenant_fuses_on_the_same_count_with_failures_cached() {
    let tenants = || {
        vec![
            TenantConfig::new("warmer"),
            TenantConfig::new("fused").with_failure_budget(3),
        ]
    };
    let admitted_until_fused = |service: &Service| -> (usize, Vec<bool>) {
        let mut cached = Vec::new();
        for i in 0..10 {
            match service.submit_wait("fused", FAILING_SCRIPT, loop_payload(i), "main") {
                Ok(done) => {
                    assert!(done.result.is_err(), "job {i}");
                    cached.push(done.cached);
                }
                Err(AdmitError::BudgetExhausted) => return (i, cached),
                Err(other) => panic!("job {i}: {other}"),
            }
        }
        panic!("the tenant never fused")
    };

    let uncached = Service::start(ServiceConfig::new(tenants()).with_cache_capacity(0)).unwrap();
    let (executed, flags) = admitted_until_fused(&uncached);
    assert_eq!((executed, flags), (3, vec![false; 3]));
    uncached.drain();

    let warm = Service::start(ServiceConfig::new(tenants())).unwrap();
    for i in 0..10 {
        let done = warm
            .submit_wait("warmer", FAILING_SCRIPT, loop_payload(i), "main")
            .unwrap();
        assert!(done.result.is_err() && !done.cached);
    }
    let (answered, flags) = admitted_until_fused(&warm);
    assert_eq!((answered, flags), (3, vec![true; 3]));
    let stats = warm.stats_json();
    assert_eq!(tenant_counter(&stats, "fused", "failed"), 3);
    assert!(stats.contains("\"fused\":true"), "{stats}");
    warm.drain();
}

/// A resubmitted failure is answered from the cache — in memory, and
/// after a restart from disk — with the executed error's bytes, and it
/// leaves the artifacts an executed failure leaves.
#[test]
fn a_cached_failure_answers_like_the_executed_one_in_memory_and_from_disk() {
    let dir = temp_dir("failures");
    let start = || {
        Arc::new(
            Service::start(
                ServiceConfig::new(vec![TenantConfig::new("alpha")]).with_cache_dir(&dir),
            )
            .unwrap(),
        )
    };
    let service = start();
    let (mut client, server) = connect(&service);
    let executed = client
        .submit("alpha", FAILING_SCRIPT, &loop_payload(3), "main")
        .unwrap();
    let again = client
        .submit("alpha", FAILING_SCRIPT, &loop_payload(3), "main")
        .unwrap();
    assert!(!executed.cached && again.cached);
    assert!(executed.output.is_err());
    assert_eq!(again.output, executed.output, "byte-identical error text");
    assert_eq!(again.transforms, 0);
    assert_eq!(
        service.artifact_kinds(again.job_id),
        ["report", "bisect", "flight"]
    );
    assert_eq!(
        client.artifact(again.job_id, "bisect").unwrap(),
        client.artifact(executed.job_id, "bisect").unwrap()
    );
    let flight = client.artifact(again.job_id, "flight").unwrap();
    td_support::trace::validate_json(&flight).expect("flight bundle validates");
    for part in [
        "{\"reason\":\"serve.job.failed\"",
        &format!("\"job\":\"{}\"", again.job_id),
        "\"kind\":\"cache.hit\"",
    ] {
        assert!(flight.contains(part), "no {part} in {flight}");
    }
    assert_eq!(client.artifact(again.job_id, "flight").unwrap(), flight);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    service.drain();
    drop(service);

    let restarted = start();
    let (mut client, server) = connect(&restarted);
    let from_disk = client
        .submit("alpha", FAILING_SCRIPT, &loop_payload(3), "main")
        .unwrap();
    assert!(from_disk.cached);
    assert_eq!(from_disk.output, executed.output);
    assert_eq!(restarted.cache_stats().disk_hits, 1);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    restarted.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_cap_rejects_a_flooding_tenant() {
    let _guard = fault::test_guard();
    // Slow every job in lane 3 so the flooder's backlog stays backlogged
    // while we overfill it.
    fault::set_plan(Some(fault::FaultPlan::parse("sleep@ms=60,job=3").unwrap()));
    let service = Service::start(
        ServiceConfig::new(vec![TenantConfig::new("flood")
            .with_fault_lane(3)
            .with_max_pending(3)])
        .with_workers(1),
    )
    .unwrap();
    let mut accepted = Vec::new();
    let mut rejections = 0;
    for i in 0..8 {
        match service.submit("flood", script(), payload(i), "main") {
            Ok(id) => accepted.push(id),
            Err(AdmitError::QueueFull) => rejections += 1,
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert!(
        rejections >= 4,
        "cap 3 over 8 rapid submits must reject most (rejected {rejections})"
    );
    for id in &accepted {
        assert!(service.wait(*id).result.is_ok());
    }
    service.drain();
    fault::set_plan(None);
}

/// Regression: the old structural cache key hashed interned type *ids*, so
/// two payloads differing only inside a type shared a key and the second
/// tenant was handed the first tenant's module.
#[test]
fn tenants_whose_payloads_differ_only_inside_a_type_get_their_own_modules() {
    let payload = |cols: usize| {
        format!(
            "module {{\n  func.func @f(%t: tensor<8x{cols}xf32>) {{\n    \
             %a = arith.constant 1 : index\n    \
             %s = \"arith.addi\"(%a, %a) : (index, index) -> index\n    func.return\n  }}\n}}"
        )
    };
    let service = Service::start(ServiceConfig::new(vec![
        TenantConfig::new("alpha"),
        TenantConfig::new("beta"),
    ]))
    .unwrap();
    let narrow = service
        .submit_wait("alpha", script(), payload(8), "main")
        .unwrap()
        .result
        .expect("alpha's job succeeds");
    let wide = service
        .submit_wait("beta", script(), payload(16), "main")
        .unwrap()
        .result
        .expect("beta's job succeeds");
    assert!(narrow.module_text.contains("tensor<8x8xf32>"));
    assert!(!wide.from_cache, "a different payload must miss");
    assert!(
        wide.module_text.contains("tensor<8x16xf32>"),
        "beta must get its own module back:\n{}",
        wide.module_text
    );
    assert_eq!(service.cache_stats().hits, 0);
    service.drain();
}

#[test]
fn restart_over_the_same_cache_dir_serves_from_disk() {
    let dir = temp_dir("warm");
    let jobs = 10;
    let tenants = || vec![TenantConfig::new("alpha"), TenantConfig::new("beta")];

    // Entries of the previous format version under these very keys: a
    // version-2 daemon must neither serve nor count them.
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..jobs {
        let key = td_sched::CacheKey::of(&script(), &payload(i), "main");
        let name = format!(
            "{:016x}{:016x}{:016x}.v1",
            key.script_fp, key.payload_fp, key.entry_fp
        );
        std::fs::write(
            dir.join(name),
            "tdserve-cache 1\ntransforms 1\nmodule 5\nstale",
        )
        .unwrap();
    }

    // Cold daemon: every job computes, results land on disk.
    let cold = Service::start(
        ServiceConfig::new(tenants())
            .with_cache_dir(&dir)
            .with_workers(2),
    )
    .unwrap();
    let cold_outputs: Vec<String> = (0..jobs)
        .map(|i| {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            cold.submit_wait(tenant, script(), payload(i), "main")
                .unwrap()
                .result
                .unwrap()
                .module_text
        })
        .collect();
    let cold_stats = cold.cache_stats();
    assert_eq!(cold_stats.disk_hits, 0, "a cold start has nothing on disk");
    cold.drain();
    drop(cold);

    // Warm daemon: fresh process state, same directory — the memory cache
    // is empty, so every hit below is served by the persistent layer.
    let warm = Service::start(
        ServiceConfig::new(tenants())
            .with_cache_dir(&dir)
            .with_workers(2),
    )
    .unwrap();
    let warm_outputs: Vec<String> = (0..jobs)
        .map(|i| {
            // Swap which tenant asks: content addressing shares across
            // tenants, so the swap must not cost a single recompute.
            let tenant = if i % 2 == 0 { "beta" } else { "alpha" };
            warm.submit_wait(tenant, script(), payload(i), "main")
                .unwrap()
                .result
                .unwrap()
                .module_text
        })
        .collect();
    assert_eq!(warm_outputs, cold_outputs, "disk entries must be faithful");
    let warm_stats = warm.cache_stats();
    assert_eq!(
        warm_stats.disk_hits, jobs as u64,
        "every warm job must be served from the persistent layer"
    );
    assert!(warm_stats.disk_hit_rate() > 0.9, "{warm_stats:?}");
    let stats_json = warm.stats_json();
    assert!(stats_json.contains("\"disk_hits\":10"), "{stats_json}");
    warm.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_and_server_converse_over_a_socketpair() {
    let service =
        Arc::new(Service::start(ServiceConfig::new(vec![TenantConfig::new("alpha")])).unwrap());
    let (client_side, server_side) = UnixStream::pair().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let mut reader = server_side.try_clone().unwrap();
            let mut writer = server_side;
            td_serve::handle_connection(&service, &mut reader, &mut writer)
        })
    };

    let mut client = Client::new(client_side.try_clone().unwrap(), client_side);
    client.ping().unwrap();

    let done = client
        .submit("alpha", &script(), &payload(1), "main")
        .unwrap();
    let module = done.output.expect("job must succeed");
    assert!(module.contains("seen"));
    assert!(!done.cached);

    // The identical job again: served by the result cache this time.
    let again = client
        .submit("alpha", &script(), &payload(1), "main")
        .unwrap();
    assert!(again.cached, "second identical submit must be a cache hit");
    assert_eq!(again.output.unwrap(), module);

    let report = client.artifact(done.job_id, "report").unwrap();
    assert!(report.contains("\"stats\""), "{report}");
    match client.artifact(done.job_id, "nonsense") {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code.as_deref(), Some("not_found")),
        other => panic!("expected not_found, got {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert!(stats.contains("\"tenants\""), "{stats}");

    // A refusal must not poison the connection...
    match client.submit("ghost", &script(), &payload(2), "main") {
        Err(ClientError::Refused { code, .. }) => {
            assert_eq!(code.as_deref(), Some("unknown_tenant"));
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    client.ping().unwrap();

    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

/// Text nested far past the parser's depth bound is a failed job, not a
/// dead daemon: each pool worker parses on a default 2 MiB thread stack.
#[test]
fn deeply_nested_submits_fail_and_the_daemon_keeps_answering() {
    let service =
        Arc::new(Service::start(ServiceConfig::new(vec![TenantConfig::new("alpha")])).unwrap());
    let (mut client, server) = connect(&service);
    let depth = 100_000;
    let payloads = [
        "\"t.r\"() ({\n".repeat(depth) + &"}) : () -> ()\n".repeat(depth),
        format!(
            "\"t.a\"() {{v = {}1{}}} : () -> ()",
            "[".repeat(depth),
            "]".repeat(depth)
        ),
        format!(
            "%f = \"t.f\"() : () -> ({}i32{})",
            "(".repeat(depth),
            ") -> i32".repeat(depth)
        ),
    ];
    for payload in payloads {
        let done = client.submit("alpha", &script(), &payload, "main").unwrap();
        let err = done.output.expect_err("nesting this deep must not parse");
        assert!(err.contains("nesting deeper than"), "{err}");
        client.ping().unwrap();
    }
    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

#[test]
fn request_ids_round_trip_from_submit_to_artifact() {
    let service =
        Arc::new(Service::start(ServiceConfig::new(vec![TenantConfig::new("alpha")])).unwrap());
    let (client_side, server_side) = UnixStream::pair().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let mut reader = server_side.try_clone().unwrap();
            let mut writer = server_side;
            td_serve::handle_connection(&service, &mut reader, &mut writer)
        })
    };
    let mut client = Client::new(client_side.try_clone().unwrap(), client_side);

    // Client-supplied id echoes back and keys the artifact index.
    let done = client
        .submit_with_request("alpha", &script(), &payload(1), "main", Some("ci/run-1"))
        .unwrap();
    assert_eq!(done.request, "ci/run-1");
    let by_request = client.artifact_by_request("ci/run-1", "report").unwrap();
    assert_eq!(by_request, client.artifact(done.job_id, "report").unwrap());
    assert!(
        by_request.contains("\"request\":\"ci/run-1\""),
        "journal steps must be stamped: {by_request}"
    );

    // Daemon-minted ids are returned and resolvable too.
    let minted = client
        .submit("alpha", &script(), &payload(2), "main")
        .unwrap();
    assert!(minted.request.starts_with('r'), "{}", minted.request);
    assert_eq!(
        service.job_for_request(&minted.request),
        Some(minted.job_id)
    );

    // Malformed ids refuse without poisoning the connection.
    match client.submit_with_request("alpha", &script(), &payload(3), "main", Some("spaced id")) {
        Err(ClientError::Refused { code, .. }) => {
            assert_eq!(code.as_deref(), Some("bad_request_id"));
        }
        other => panic!("expected bad_request_id, got {other:?}"),
    }
    match client.artifact_by_request("ci/unknown", "report") {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code.as_deref(), Some("not_found")),
        other => panic!("expected not_found, got {other:?}"),
    }

    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

#[test]
fn txn_mode_flows_from_tenant_config_to_stats_and_wire() {
    // A schedule whose only step fails silenceably (nothing matches):
    // under txn_mode=always the step rolls back, which the per-tenant
    // rollback counters must surface in STATS.
    let failing_script = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %none = "transform.match_op"(%root) {name = "nonexistent.op"}
        : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%none) {name = "seen"} : (!transform.any_op) -> ()
  }
}"#;
    let service = Arc::new(
        Service::start(ServiceConfig::new(vec![
            TenantConfig::new("transacted"),
            TenantConfig::new("raw").with_txn_mode(td_sched::TxnMode::Never),
        ]))
        .unwrap(),
    );
    let done = service
        .submit_wait("transacted", failing_script, payload(1), "main")
        .unwrap();
    assert!(done.result.is_err(), "match of nothing must fail the job");

    let stats = service.stats_json();
    assert!(stats.contains("\"txn_mode\":\"always\""), "{stats}");
    assert!(stats.contains("\"txn_mode\":\"never\""), "{stats}");
    // One job, one failing step, one rollback — exactly. The counters
    // are the tenant's work, not the observability plane's.
    assert_eq!(
        tenant_counter(&stats, "transacted", "rollbacks"),
        1,
        "{stats}"
    );
    let undo_entries = tenant_counter(&stats, "transacted", "undo_entries");
    // Bisecting the failure afterwards replays it several times, each
    // probe rolling back — none of which is the tenant's.
    assert!(service.artifact(done.job_id, "bisect").is_some());
    let stats = service.stats_json();
    assert_eq!(
        tenant_counter(&stats, "transacted", "rollbacks"),
        1,
        "{stats}"
    );
    assert_eq!(
        tenant_counter(&stats, "transacted", "undo_entries"),
        undo_entries,
        "{stats}"
    );

    // Over the wire: a per-request override is accepted, an invalid one
    // is an ERR with its own code — and never poisons the connection.
    let (client_side, server_side) = UnixStream::pair().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let mut reader = server_side.try_clone().unwrap();
            let mut writer = server_side;
            td_serve::handle_connection(&service, &mut reader, &mut writer)
        })
    };
    let mut client = Client::new(client_side.try_clone().unwrap(), client_side);
    let ok = client
        .submit_with_options("raw", &script(), &payload(2), "main", None, Some("always"))
        .unwrap();
    assert!(ok.output.expect("job succeeds").contains("seen"));
    // `auto` is no longer a mode: refused exactly like a nonsense value.
    for bad in ["banana", "auto"] {
        match client.submit_with_options("raw", &script(), &payload(3), "main", None, Some(bad)) {
            Err(ClientError::Refused { code, reason }) => {
                assert_eq!(code.as_deref(), Some("bad_txn_mode"), "{bad}");
                assert!(reason.contains("txn_mode"), "{reason}");
                assert!(reason.contains("always|never"), "{reason}");
            }
            other => panic!("{bad}: expected bad_txn_mode, got {other:?}"),
        }
    }
    client.ping().unwrap();
    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

#[test]
fn stats_stays_valid_under_concurrent_tenant_load() {
    use td_support::trace::validate_json;

    // A hostile tenant name puts JSON escaping on trial.
    let hostile = "we\"ird\\ten\nant";
    let service = Arc::new(
        Service::start(ServiceConfig::new(vec![
            TenantConfig::new("alpha").with_weight(2),
            TenantConfig::new("bravo"),
            TenantConfig::new("charlie"),
            TenantConfig::new(hostile),
        ]))
        .unwrap(),
    );

    let submitters: Vec<_> = ["alpha", "bravo", "charlie", hostile]
        .into_iter()
        .enumerate()
        .map(|(t, tenant)| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..6 {
                    service
                        .submit_wait(tenant, script(), payload(t * 100 + i), "main")
                        .expect("admitted")
                        .result
                        .expect("job succeeds");
                }
            })
        })
        .collect();
    // Read STATS *while* the load runs, then once after.
    for _ in 0..5 {
        validate_json(&service.stats_json()).expect("stats JSON valid mid-load");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for handle in submitters {
        handle.join().unwrap();
    }

    let stats = service.stats_json();
    validate_json(&stats).expect("stats JSON valid after load");
    assert!(stats.contains("\"uptime_ms\":"), "{stats}");
    assert!(
        stats.contains(r#""name":"we\"ird\\ten\nant""#),
        "hostile tenant name must be escaped: {stats}"
    );
    // The live internal registry rides along as one more object.
    assert!(stats.contains("\"internal\":{\"counters\":{"), "{stats}");
    service.drain();
}

#[test]
fn request_ids_resolve_under_the_default_config() {
    let service = Service::start(ServiceConfig::new(vec![TenantConfig::new("solo")])).unwrap();
    let (id, request) = service
        .submit_with_request("solo", script(), payload(7), "main", Some("ci/req-1"))
        .unwrap();
    assert_eq!(request, "ci/req-1");
    service.wait(id).result.expect("job succeeds");
    assert_eq!(service.job_for_request("ci/req-1"), Some(id));
    // A minted id resolves too.
    let (minted_id, minted) = service
        .submit_with_request("solo", script(), payload(8), "main", None)
        .unwrap();
    service.wait(minted_id).result.expect("job succeeds");
    assert_eq!(service.job_for_request(&minted), Some(minted_id));
    assert_eq!(service.job_for_request("ci/never"), None);
    service.drain();
}

#[test]
fn a_bisect_artifact_is_computed_by_its_first_retrieval() {
    let service =
        Arc::new(Service::start(ServiceConfig::new(vec![TenantConfig::new("alpha")])).unwrap());
    let (mut client, server) = connect(&service);

    let failures: Vec<u64> = (0..3)
        .map(|i| {
            let done = client
                .submit("alpha", FAILING_SCRIPT, &loop_payload(i), "main")
                .unwrap();
            assert!(done.output.is_err(), "step 3 must fail job {i}");
            done.job_id
        })
        .collect();
    let passing = client
        .submit("alpha", &script(), &payload(1), "main")
        .unwrap();
    assert!(passing.output.is_ok());
    for &job in &failures {
        assert_eq!(
            service.artifact_kinds(job),
            ["report", "bisect", "flight"],
            "kinds listed before anything is computed"
        );
    }
    assert_eq!(service.artifact_kinds(passing.job_id), ["report"]);
    assert_eq!(bisections(&service), 0, "nobody asked: nothing bisected");

    // Over the wire and in process: the same bytes the bisector renders,
    // one bisection per job however often it is fetched.
    let expected = expected_bisect_text(&loop_payload(0));
    assert_eq!(client.artifact(failures[0], "bisect").unwrap(), expected);
    assert_eq!(bisections(&service), 1);
    let counters = service.stats_json();
    let failed_before = tenant_counter(&counters, "alpha", "failed");
    assert_eq!(
        service.artifact(failures[0], "bisect").as_deref(),
        Some(expected.as_str())
    );
    assert_eq!(client.artifact(failures[0], "bisect").unwrap(), expected);
    assert_eq!(bisections(&service), 1, "a refetch is a lookup");
    assert_eq!(
        service.artifact(failures[1], "bisect"),
        Some(expected_bisect_text(&loop_payload(1)))
    );
    assert_eq!(bisections(&service), 2);
    let counters = service.stats_json();
    assert_eq!(tenant_counter(&counters, "alpha", "failed"), failed_before);
    assert_eq!(tenant_counter(&counters, "alpha", "completed"), 4);

    // The other artifacts of the job are where they were.
    let report = client.artifact(failures[0], "report").unwrap();
    td_support::trace::validate_json(&report).expect("report JSON validates");
    assert!(report.contains("\"stats\""), "{report}");
    assert!(report.contains("transform.match_op"), "{report}");
    assert!(
        report.contains("\"artifacts\":[]"),
        "the repro is its own artifact, not a copy in the report: {report}"
    );
    assert_eq!(client.artifact(failures[0], "report").unwrap(), report);
    let flight = client.artifact(failures[0], "flight").unwrap();
    assert!(flight.contains("\"repro\":null"), "{flight}");
    // The bundle replays the job: it ran on the thread whose ring this is.
    for event in [
        r#""kind":"step.begin","args":{"name":"transform.match_op"}"#,
        r#""kind":"step.failed","args":{"name":"transform.match_op""#,
        r#""kind":"rollback""#,
    ] {
        assert!(flight.contains(event), "no {event} in {flight}");
    }
    expect_not_found(client.artifact(passing.job_id, "bisect"));

    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

#[test]
fn only_transform_failures_list_a_bisect_artifact() {
    let _guard = fault::test_guard();
    fault::set_plan(Some(
        fault::FaultPlan::parse("sleep@ms=60,job=9;panic@job=8").unwrap(),
    ));
    let service = Service::start(ServiceConfig::new(vec![
        TenantConfig::new("plain").with_fault_lane(11),
        TenantConfig::new("laggy")
            .with_fault_lane(9)
            .with_deadline_ms(20),
        // Without transactions nothing contains the panic short of the
        // worker boundary.
        TenantConfig::new("crashy")
            .with_fault_lane(8)
            .with_txn_mode(td_sched::TxnMode::Never),
    ]))
    .unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = [
        service.submit_wait("plain", "not mlir", payload(0), "main"),
        service.submit_wait("plain", script(), payload(0), "elsewhere"),
        service.submit_wait("laggy", script(), payload(1), "main"),
        service.submit_wait("crashy", script(), payload(2), "main"),
    ];
    std::panic::set_hook(hook);
    fault::set_plan(None);
    let errors: Vec<(u64, td_sched::JobError)> = outcomes
        .into_iter()
        .map(|done| {
            let done = done.expect("admitted");
            (done.job_id, done.result.expect_err("every job here fails"))
        })
        .collect();
    use td_sched::JobError;
    assert!(matches!(errors[0].1, JobError::Parse { .. }), "{errors:?}");
    assert!(
        matches!(errors[1].1, JobError::EntryMissing { .. }),
        "{errors:?}"
    );
    assert!(
        matches!(errors[2].1, JobError::DeadlineExceeded),
        "{errors:?}"
    );
    assert!(
        matches!(errors[3].1, JobError::Panicked { .. }),
        "{errors:?}"
    );
    for (job, error) in &errors {
        assert_eq!(
            service.artifact_kinds(*job),
            ["report", "flight"],
            "{error} is not a schedule failure: nothing to bisect"
        );
        assert_eq!(service.artifact(*job, "bisect"), None);
    }
    assert_eq!(bisections(&service), 0);
    service.drain();
}

#[test]
fn a_job_bisects_under_its_tenants_txn_mode() {
    // Every probe of a bisection under `always` rolls its failing step
    // back; under `never` nothing ever rolls back. Drain hands the
    // daemon's metrics (job and bisection alike) to this thread.
    let expected = expected_bisect_text(&loop_payload(0));
    let rollbacks_of_job_and_bisection = |mode: td_sched::TxnMode| {
        td_support::metrics::reset();
        let service = Service::start(ServiceConfig::new(vec![
            TenantConfig::new("solo").with_txn_mode(mode)
        ]))
        .unwrap();
        let done = service
            .submit_wait("solo", FAILING_SCRIPT, loop_payload(0), "main")
            .unwrap();
        assert!(done.result.is_err());
        assert_eq!(
            service.artifact(done.job_id, "bisect").as_ref(),
            Some(&expected),
            "same repro under {mode:?}"
        );
        service.drain();
        let absorbed = td_support::metrics::take();
        assert_eq!(absorbed.counter_value("sched.bisections"), Some(1));
        absorbed.counter_value("interp.rolled_back").unwrap_or(0)
    };
    assert_eq!(rollbacks_of_job_and_bisection(td_sched::TxnMode::Never), 0);
    assert!(rollbacks_of_job_and_bisection(td_sched::TxnMode::Always) > 1);
}

#[test]
fn deferred_artifacts_are_evicted_with_their_job() {
    let mut config = ServiceConfig::new(vec![TenantConfig::new("alpha")]);
    config.artifact_capacity = 2;
    let service = Arc::new(Service::start(config).unwrap());
    let (mut client, server) = connect(&service);
    let failed = client
        .submit("alpha", FAILING_SCRIPT, &loop_payload(0), "main")
        .unwrap();
    assert_eq!(
        service.artifact_kinds(failed.job_id),
        ["report", "bisect", "flight"]
    );
    for i in 0..2 {
        client
            .submit("alpha", &script(), &payload(i), "main")
            .unwrap();
    }
    assert!(service.artifact_kinds(failed.job_id).is_empty());
    expect_not_found(client.artifact(failed.job_id, "bisect"));
    expect_not_found(client.artifact(failed.job_id, "report"));
    assert_eq!(bisections(&service), 0, "evicted unforced");
    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

#[test]
fn concurrent_fetches_of_a_fresh_bisect_entry_agree() {
    let service =
        Arc::new(Service::start(ServiceConfig::new(vec![TenantConfig::new("alpha")])).unwrap());
    let done = service
        .submit_wait("alpha", FAILING_SCRIPT, loop_payload(0), "main")
        .unwrap();
    let start = std::sync::Barrier::new(2);
    let texts: Vec<Option<String>> = std::thread::scope(|scope| {
        let fetchers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    service.artifact(done.job_id, "bisect")
                })
            })
            .collect();
        fetchers.into_iter().map(|f| f.join().unwrap()).collect()
    });
    let expected = expected_bisect_text(&loop_payload(0));
    assert_eq!(texts, [Some(expected.clone()), Some(expected)]);
    assert_eq!(bisections(&service), 1);
    service.drain();
}

#[test]
fn workers_keep_completing_jobs_while_a_bisection_is_forced() {
    let _guard = fault::test_guard();
    // Every transform in lane 5 sleeps, so the failing job takes 0.3 s and
    // its bisection (four probes, eleven steps) over a second — on the
    // fetching thread. The pool must not notice.
    fault::set_plan(Some(fault::FaultPlan::parse("sleep@ms=100,job=5").unwrap()));
    let service = Arc::new(
        Service::start(
            ServiceConfig::new(vec![
                TenantConfig::new("slow").with_fault_lane(5),
                TenantConfig::new("steady").with_fault_lane(11),
            ])
            .with_workers(2),
        )
        .unwrap(),
    );
    let failed = service
        .submit_wait("slow", FAILING_SCRIPT, loop_payload(0), "main")
        .unwrap();
    assert!(failed.result.is_err());
    let (forcing_tx, forcing_rx) = std::sync::mpsc::channel();
    let bisecting = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            forcing_tx.send(()).unwrap();
            service.artifact(failed.job_id, "bisect")
        })
    };
    forcing_rx.recv().unwrap();
    for i in 0..50 {
        let done = service
            .submit_wait("steady", script(), payload(i), "main")
            .unwrap();
        assert!(done.result.is_ok(), "job {i}: {:?}", done.result);
        assert!(service.artifact(done.job_id, "report").is_some());
    }
    assert!(
        !bisecting.is_finished(),
        "50 jobs and their reports were served while the bisection ran"
    );
    let repro = bisecting.join().unwrap();
    fault::set_plan(None);
    assert_eq!(repro, Some(expected_bisect_text(&loop_payload(0))));
    service.drain();
}

#[test]
fn a_bisection_brought_down_by_a_fault_answers_not_found() {
    let _guard = fault::test_guard();
    let service = Arc::new(
        Service::start(ServiceConfig::new(vec![
            TenantConfig::new("alpha").with_fault_lane(8)
        ]))
        .unwrap(),
    );
    let (mut client, server) = connect(&service);
    let failed = client
        .submit("alpha", FAILING_SCRIPT, &loop_payload(0), "main")
        .unwrap();
    assert!(failed.output.is_err());

    // Armed only now: the job failed on its own, the bisector's first
    // parse panics on its first allocation.
    fault::set_plan(Some(
        fault::FaultPlan::parse("alloc_pressure@job=8").unwrap(),
    ));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let answer = client.artifact(failed.job_id, "bisect");
    std::panic::set_hook(hook);
    fault::set_plan(None);
    expect_not_found(answer);

    // The connection, the entry and the pool all survived it.
    client.ping().unwrap();
    expect_not_found(client.artifact(failed.job_id, "bisect"));
    assert!(client.artifact(failed.job_id, "report").is_ok());
    let after = client
        .submit("alpha", &script(), &payload(1), "main")
        .unwrap();
    assert!(after.output.is_ok());
    assert_eq!(bisections(&service), 0);
    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

/// The spans named `name` in `recorded`, in the order they ended. The
/// pool's lanes reach the calling thread's trace when `drain` hands them
/// over.
fn spans_by_end(
    recorded: &td_support::trace::Trace,
    name: &str,
) -> Vec<td_support::trace::TraceEvent> {
    let mut spans: Vec<_> = recorded
        .events()
        .iter()
        .filter(|e| e.name == name)
        .cloned()
        .collect();
    spans.sort_by_key(|e| e.end_ns());
    spans
}

fn span_arg<'a>(event: &'a td_support::trace::TraceEvent, key: &str) -> &'a str {
    let arg = event.args.iter().find(|(k, _)| k == key);
    arg.map_or("", |(_, v)| v.as_str())
}

#[test]
fn a_served_job_starts_after_its_queue_wait_ends() {
    use td_support::trace;
    trace::reset();
    trace::set_enabled(true);
    let service = Service::start(ServiceConfig::new(vec![TenantConfig::new("solo")])).unwrap();
    // Let the daemon age, so a lane on a clock of its own would show.
    std::thread::sleep(std::time::Duration::from_millis(20));
    for i in 0..3 {
        let request = format!("ci/order-{i}");
        let (id, _) = service
            .submit_with_request("solo", script(), payload(i), "main", Some(&request))
            .unwrap();
        service.wait(id).result.expect("job succeeds");
    }
    service.drain();
    trace::clear_enabled_override();
    let recorded = trace::take();
    let waits = spans_by_end(&recorded, "queue_wait");
    assert_eq!(waits.len(), 3);
    for wait in waits {
        let request = span_arg(&wait, "request");
        let [job] = recorded
            .events()
            .iter()
            .filter(|e| e.cat == "sched" && e.name == "job" && span_arg(e, "request") == request)
            .collect::<Vec<_>>()[..]
        else {
            panic!("one job span for {request}");
        };
        assert_eq!(
            job.tid, wait.tid,
            "{request} ran on the worker that popped it"
        );
        assert!(
            wait.end_ns() <= job.start_ns,
            "{request}: waited until {} ns, ran from {} ns",
            wait.end_ns(),
            job.start_ns
        );
    }
}

#[test]
fn jobs_are_dispatched_in_exactly_the_fair_queues_order() {
    use td_support::trace;
    let _guard = fault::test_guard();
    // One worker, held by `hold`'s job (every step in lane 4 sleeps) while
    // twelve jobs queue up behind it: no job is released ahead of the
    // fairness decision, so the order they run in is the order a plain
    // FairQueue pops them in.
    fault::set_plan(Some(fault::FaultPlan::parse("sleep@ms=150,job=4").unwrap()));
    trace::reset();
    trace::set_enabled(true);
    let tenants = [("hold", 1, 4), ("light", 1, 11), ("heavy", 3, 12)];
    let service = Service::start(
        ServiceConfig::new(
            tenants
                .iter()
                .map(|&(name, weight, lane)| {
                    TenantConfig::new(name)
                        .with_weight(weight)
                        .with_fault_lane(lane)
                })
                .collect(),
        )
        .with_workers(1),
    )
    .unwrap();
    let mut reference = td_serve::FairQueue::new(&[1, 1, 3]);

    let held = service
        .submit("hold", script(), payload(0), "main")
        .unwrap();
    reference.push(0, "hold");
    while tenant_counter(&service.stats_json(), "hold", "dispatched") == 0 {
        std::thread::yield_now();
    }
    assert_eq!(reference.pop().map(|q| q.item), Some("hold"));
    let mut ids = Vec::new();
    for (tenant, name) in [(1, "light"), (2, "heavy")] {
        // `heavy` arrives late: time enough for anything standing between
        // the queue and the held worker to have taken `light` jobs out of
        // the fairness decision. Nothing stands there.
        std::thread::sleep(std::time::Duration::from_millis(20 * (tenant as u64 - 1)));
        for i in 0..6 {
            ids.push(
                service
                    .submit(name, script(), payload(10 * tenant + i), "main")
                    .unwrap(),
            );
            reference.push(tenant, name);
        }
    }
    assert!(
        service.try_take(held).is_none(),
        "the backlog must be complete while the worker is still held"
    );
    let expected: Vec<&str> = std::iter::from_fn(|| reference.pop().map(|q| q.item)).collect();
    assert_eq!(expected.len(), 12);

    for id in ids {
        assert!(service.wait(id).result.is_ok());
    }
    service.drain();
    fault::set_plan(None);
    trace::clear_enabled_override();
    let dispatched: Vec<String> = spans_by_end(&trace::take(), "queue_wait")
        .iter()
        .map(|wait| span_arg(wait, "tenant").to_owned())
        .collect();
    assert_eq!(dispatched[0], "hold");
    assert_eq!(dispatched[1..], expected[..]);
}
