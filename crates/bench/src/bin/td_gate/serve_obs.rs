//! CI gate for td-serve's observability, in two acts.
//!
//! **Act 1 — live daemon (subprocess, unix socket).** Spawns the real
//! `td_serve` binary with four tenants (one fault-injected to sleep past
//! its deadline) and a size-capped disk cache. Drives mixed traffic with
//! both client-supplied and daemon-minted request ids, then checks the
//! daemon's surfaces: enriched `PONG` fields, artifact retrieval by
//! request id, and `STATS` — valid JSON, per-tenant deadline-miss counters
//! nonzero *only* for the faulted tenant, the disk cache's eviction
//! counter, and the live internal registry under `internal`.
//!
//! **Act 2 — request-id correlation (in-process).** With tracing on and
//! a panic fault plan installed, one request id supplied at SUBMIT must
//! be retrievable from the `RESULT`, the journal report artifact, the
//! flight bundle, and the Chrome trace's queue-wait and run spans — the
//! "one id stitches every artifact" contract.
//!
//! ```text
//! TD_BENCH_QUICK=1 cargo run --release -p td-bench --bin td_gate -- serve_obs
//! ```

use std::process::Command;
use td_bench::gate;
use td_sched::JobError;
use td_serve::{ClientError, Service, ServiceConfig, TenantConfig};
use td_support::trace::validate_json;
use td_support::{fault, metrics, trace};

/// The gate's `i`-th payload.
fn payload(i: usize) -> String {
    gate::loop_payload(i, 32)
}

/// Two steps: match (0), tile (1) — fault plans target step=1.
fn script() -> String {
    gate::tile_schedule("main", 8, None)
}

/// The number after the first `"key":` in `json` at or past `from`.
fn number_after(json: &str, from: &str, key: &str) -> u64 {
    let at = json
        .find(from)
        .unwrap_or_else(|| panic!("STATS lacks {from}: {json}"));
    json[at..]
        .split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("STATS lacks {key} after {from}: {json}"))
}

fn live_daemon() {
    let base = std::env::temp_dir().join(format!("td-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("mkdir");
    let socket = base.join("daemon.sock");
    let (child, mut client) = gate::spawn_socket(
        Command::new(gate::sibling("td_serve"))
            .env("TD_SERVE_CACHE_DIR", base.join("cache"))
            .env("TD_SERVE_CACHE_MAX_BYTES", "2048")
            .env(
                "TD_SERVE_TENANTS",
                "steady:weight=2;laggy:deadline_ms=20,lane=9;bulk;quiet",
            )
            // The sleep fires only in lane 9 — tenant `laggy` — and pushes
            // every laggy job past its 20ms deadline.
            .env("TD_FAULT", "sleep@ms=60,job=9")
            .env("TD_SERVE_WORKERS", "3"),
        &socket,
    );
    let script = script();

    // PONG grew identity fields.
    let info = client.ping().expect("PING");
    assert_eq!(info.proto, "td-serve/1", "PONG proto: {info:?}");
    assert!(!info.build.is_empty(), "PONG build fingerprint missing");
    assert!(!info.instance.is_empty(), "PONG instance token missing");

    // Mixed traffic. `steady` alternates client-supplied and minted
    // request ids; `laggy` rides the sleep fault into deadline misses;
    // `bulk` pushes distinct payloads through the capped disk cache.
    let mut steady_requests = Vec::new();
    for i in 0..6 {
        let supplied = (i % 2 == 0).then(|| format!("ci/steady-{i}"));
        let done = client
            .submit_with_request("steady", &script, &payload(i), "main", supplied.as_deref())
            .expect("steady submit");
        done.output.expect("steady job succeeds");
        match &supplied {
            Some(id) => assert_eq!(&done.request, id, "client-supplied id must echo"),
            None => assert!(
                done.request.starts_with('r') && !done.request.is_empty(),
                "minted id looks wrong: '{}'",
                done.request
            ),
        }
        steady_requests.push(done.request);
    }
    let mut laggy_requests = Vec::new();
    for i in 0..4 {
        let done = client
            .submit_with_request("laggy", &script, &payload(50 + i), "main", None)
            .expect("laggy submit is admitted");
        assert!(done.output.is_err(), "laggy job {i} must miss its deadline");
        laggy_requests.push(done.request);
    }
    for i in 0..6 {
        client
            .submit("bulk", &script, &payload(100 + i), "main")
            .expect("bulk submit")
            .output
            .expect("bulk job succeeds");
    }

    // Malformed client-supplied ids refuse crisply.
    match client.submit_with_request("steady", &script, &payload(0), "main", Some("bad id!")) {
        Err(ClientError::Refused { code, .. }) => {
            assert_eq!(code.as_deref(), Some("bad_request_id"));
        }
        other => panic!("bad request id must refuse, got {other:?}"),
    }

    // Artifacts are addressable by request id.
    let by_request = client
        .artifact_by_request(&steady_requests[0], "report")
        .expect("artifact by request id");
    validate_json(&by_request).expect("report artifact is JSON");
    assert!(
        by_request.contains(&steady_requests[0]),
        "report must carry its request id"
    );
    // A missed deadline leaves a flight bundle under its request id.
    let flight = client
        .artifact_by_request(&laggy_requests[0], "flight")
        .expect("flight artifact by request id");
    assert!(
        flight.contains(&laggy_requests[0]),
        "flight bundle must carry its request id"
    );
    match client.artifact_by_request("ci/never-submitted", "report") {
        Err(ClientError::Refused { code, .. }) => {
            assert_eq!(code.as_deref(), Some("not_found"));
        }
        other => panic!("unknown request id must refuse, got {other:?}"),
    }

    // STATS: valid JSON, deadline misses only where faulted, the capped
    // disk cache's evictions, and the live internal registry.
    let stats = client.stats().expect("STATS");
    validate_json(&stats).expect("stats JSON is valid");
    for key in ["\"uptime_ms\":", "\"internal\":{\"counters\":{"] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }
    let miss = |tenant: &str| {
        number_after(
            &stats,
            &format!("\"name\":\"{tenant}\""),
            "deadline_missed",
        )
    };
    assert_eq!(miss("laggy"), 4, "laggy missed all 4 deadlines");
    for tenant in ["steady", "bulk", "quiet"] {
        assert_eq!(
            miss(tenant),
            0,
            "unfaulted tenant {tenant} must not miss deadlines"
        );
    }
    let evicted = number_after(&stats, "\"disk\":", "evicted");
    assert!(
        evicted > 0,
        "2KB cap over 16 distinct results must evict: {stats}"
    );

    gate::shut_down(child, &mut client);
    let _ = std::fs::remove_dir_all(&base);
    println!(
        "serve obs act 1 OK: laggy missed 4 deadlines, the others none, {evicted} entries evicted"
    );
}

fn request_correlation() {
    let _guard = fault::test_guard();
    trace::reset();
    trace::set_enabled(true);
    fault::set_plan(Some(
        fault::FaultPlan::parse("panic@job=13,step=1").expect("plan parses"),
    ));
    let service = Service::start(
        ServiceConfig::new(vec![
            TenantConfig::new("fine").with_fault_lane(11),
            TenantConfig::new("boom").with_fault_lane(13),
        ])
        .with_workers(2),
    )
    .expect("service starts");

    const RID: &str = "ci/boom-1";
    let script = script();
    let (boom_id, boom_rid) = service
        .submit_with_request("boom", &script, payload(7), "main", Some(RID))
        .expect("boom admits");
    let fine = service
        .submit_wait("fine", &script, payload(8), "main")
        .expect("fine admits");
    fine.result.expect("unfaulted job succeeds");
    let boom = service.wait(boom_id);

    // 1. RESULT carries the id.
    assert_eq!(boom_rid, RID);
    assert_eq!(boom.request, RID);
    assert!(
        matches!(boom.result, Err(JobError::Transform { ref message, .. }) if message.contains("panicked")),
        "panic plan must fail the boom job: {:?}",
        boom.result
    );
    // 2. The journal report artifact carries it on every step.
    let report = service
        .artifact(boom_id, "report")
        .expect("report artifact retained");
    validate_json(&report).expect("report is JSON");
    assert!(
        report.contains(&format!("\"request\":\"{RID}\"")),
        "journal steps must be stamped with the request id:\n{report}"
    );
    // 3. The flight bundle carries it.
    let bundle = service
        .artifact(boom_id, "flight")
        .expect("flight bundle retained for the failed job");
    validate_json(&bundle).expect("flight bundle is JSON");
    assert!(
        bundle.contains(RID),
        "flight bundle must carry the request id:\n{bundle}"
    );
    // 4. The Chrome trace has queue-wait and run spans tagged with it.
    service.drain();
    let chrome = trace::take().to_chrome_json();
    trace::set_enabled(false);
    fault::set_plan(None);
    validate_json(&chrome).expect("chrome trace is JSON");
    let span = |name: &str| {
        chrome
            .split("{\"name\":")
            .any(|chunk| chunk.contains(&format!("\"{name}\"")) && chunk.contains(RID))
    };
    assert!(
        span("queue_wait"),
        "queue_wait span tagged with the request id missing from trace"
    );
    assert!(
        span("job"),
        "engine job span tagged with the request id missing from trace"
    );
    println!(
        "serve obs act 2 OK: request id '{RID}' correlated across RESULT, report, flight, trace"
    );
}

pub fn run() {
    // The smoke runs with metrics on, like the daemon does.
    metrics::reset();
    live_daemon();
    request_correlation();
    println!("serve obs OK");
}
