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
fn txn_mode_flows_from_tenant_config_to_stats_metrics_and_wire() {
    // A schedule whose only step fails silenceably (nothing matches):
    // under txn_mode=always the step rolls back, which the per-tenant
    // rollback counters must surface in STATS and METRICS.
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
    // The exact count depends on how often the observability plane
    // replays the failing job (flight/bisect capture) — only "some
    // rollbacks happened for the transacted tenant" is contractual.
    let transacted = stats.find("\"transacted\"").expect("tenant in stats");
    let rollbacks: u64 = stats[transacted..]
        .split("\"rollbacks\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no rollbacks counter: {stats}"));
    assert!(rollbacks > 0, "{stats}");
    let expo = service.metrics_exposition();
    let line = expo
        .lines()
        .find(|l| l.starts_with("td_txn_rollbacks_total{tenant=\"transacted\"}"))
        .unwrap_or_else(|| panic!("no rollback series: {expo}"));
    assert!(!line.ends_with(" 0"), "{line}");
    assert!(
        expo.contains("td_txn_undo_entries{tenant=\"transacted\"}"),
        "{expo}"
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
    match client.submit_with_options("raw", &script(), &payload(3), "main", None, Some("banana")) {
        Err(ClientError::Refused { code, reason }) => {
            assert_eq!(code.as_deref(), Some("bad_txn_mode"));
            assert!(reason.contains("txn_mode"), "{reason}");
        }
        other => panic!("expected bad_txn_mode, got {other:?}"),
    }
    client.ping().unwrap();
    client.shutdown().unwrap();
    assert_eq!(server.join().unwrap().unwrap(), ConnectionOutcome::Shutdown);
    service.drain();
}

#[test]
fn stats_and_metrics_stay_valid_under_concurrent_tenant_load() {
    use td_support::trace::validate_json;

    // Hostile tenant names: label escaping and JSON escaping both on trial.
    let hostile = "we\"ird\\ten\nant";
    let service = Arc::new(
        Service::start(ServiceConfig::new(vec![
            TenantConfig::new("alpha").with_weight(2).with_slo_ms(5_000),
            TenantConfig::new("bravo"),
            TenantConfig::new("charlie")
                .with_slo_ms(1)
                .with_slo_target(0.5),
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
    // Scrape both surfaces *while* the load runs, then once after.
    for _ in 0..5 {
        validate_json(&service.stats_json()).expect("stats JSON valid mid-load");
        td_serve::validate_exposition(&service.metrics_exposition())
            .expect("exposition valid mid-load");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for handle in submitters {
        handle.join().unwrap();
    }

    let stats = service.stats_json();
    validate_json(&stats).expect("stats JSON valid after load");
    assert!(stats.contains("\"uptime_ms\":"), "{stats}");
    assert!(stats.contains("\"window\":"), "{stats}");
    assert!(stats.contains("\"slo\":"), "{stats}");

    let expo = service.metrics_exposition();
    td_serve::validate_exposition(&expo).expect("exposition valid after load");
    assert!(
        expo.contains(r#"tenant="we\"ird\\ten\nant""#),
        "hostile tenant label must be escaped: {expo}"
    );
    // 24 jobs completed across the four tenants; charlie's 1ms SLO at a
    // forgiving 0.5 target still yields a burn series.
    assert!(
        expo.contains("td_serve_tenant_slo_burn{tenant=\"charlie\"}"),
        "{expo}"
    );
    assert!(
        expo.contains("td_serve_tenant_latency_ms{tenant=\"alpha\",quantile=\"0.99\"}"),
        "{expo}"
    );
    service.drain();
}

#[test]
fn observability_can_be_switched_off() {
    let service = Service::start(
        ServiceConfig::new(vec![TenantConfig::new("solo").with_slo_ms(1_000)])
            .without_observability(),
    )
    .unwrap();
    let (id, request) = service
        .submit_with_request("solo", script(), payload(7), "main", Some("ci/off-1"))
        .unwrap();
    assert_eq!(request, "ci/off-1");
    service.wait(id).result.expect("job succeeds");
    // No request index, no window/slo blocks, no windowed series — but
    // both surfaces stay well-formed.
    assert_eq!(service.job_for_request("ci/off-1"), None);
    let stats = service.stats_json();
    td_support::trace::validate_json(&stats).expect("stats JSON valid");
    assert!(!stats.contains("\"window\":"), "{stats}");
    let expo = service.metrics_exposition();
    td_serve::validate_exposition(&expo).expect("exposition valid");
    assert!(!expo.contains("td_serve_tenant_rate"), "{expo}");
    service.drain();
}
