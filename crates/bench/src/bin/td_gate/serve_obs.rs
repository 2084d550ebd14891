//! CI gate for the td-serve observability plane, in three acts.
//!
//! **Act 1 — live daemon (subprocess, unix socket).** Spawns the real
//! `td_serve` binary with four tenants (one fault-injected to sleep past
//! its deadline), a size-capped disk cache, and a structured event log.
//! Drives mixed traffic with both client-supplied and daemon-minted
//! request ids, then checks every observability surface: enriched `PONG`
//! fields, `STATS` JSON validity, `METRICS` well-formedness (via the
//! exposition checker) with per-tenant deadline-miss counters nonzero
//! *only* for the faulted tenant, SLO burn series, disk-cache eviction
//! counters, artifact retrieval by request id, the `td_top --once`
//! dashboard frame, and a JSON-lines event log whose admission/deadline
//! entries carry the request ids.
//!
//! **Act 2 — request-id correlation (in-process).** With tracing on and
//! a panic fault plan installed, one request id supplied at SUBMIT must
//! be retrievable from the `RESULT`, the journal report artifact, the
//! flight bundle, and the Chrome trace's queue-wait and run spans — the
//! "one id stitches every artifact" contract.
//!
//! **Act 3 — overhead gate.** The observability plane (time series,
//! request index, per-job metric flush) must cost < 3% against an
//! identical service started `without_observability()`, in the median of
//! interleaved rounds that alternate which service runs first.
//!
//! ```text
//! TD_BENCH_QUICK=1 cargo run --release -p td-bench --bin td_gate -- serve_obs
//! ```

use std::process::Command;
use std::time::Instant;
use td_bench::gate;
use td_sched::JobError;
use td_serve::{validate_exposition, ClientError, Service, ServiceConfig, TenantConfig};
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

/// Reads one sample value from an exposition document: the line starting
/// `metric{tenant="<tenant>"}` (or bare `metric ` when `tenant` is
/// empty).
fn sample(text: &str, metric: &str, tenant: &str) -> Option<f64> {
    let prefix = if tenant.is_empty() {
        format!("{metric} ")
    } else {
        format!("{metric}{{tenant=\"{tenant}\"}} ")
    };
    text.lines()
        .find(|line| line.starts_with(&prefix))
        .and_then(|line| line[prefix.len()..].trim().parse().ok())
}

fn live_daemon() {
    let base = std::env::temp_dir().join(format!("td-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("mkdir");
    let socket = base.join("daemon.sock");
    let log_path = base.join("events.jsonl");
    let (child, mut client) = gate::spawn_socket(
        Command::new(gate::sibling("td_serve"))
            .env("TD_SERVE_CACHE_DIR", base.join("cache"))
            .env("TD_SERVE_CACHE_MAX_BYTES", "2048")
            .env("TD_SERVE_LOG", &log_path)
            .env(
                "TD_SERVE_TENANTS",
                "steady:weight=2,slo_ms=5000;laggy:deadline_ms=20,lane=9,slo_ms=1,slo_target=0.99;bulk;quiet",
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
    match client.artifact_by_request("ci/never-submitted", "report") {
        Err(ClientError::Refused { code, .. }) => {
            assert_eq!(code.as_deref(), Some("not_found"));
        }
        other => panic!("unknown request id must refuse, got {other:?}"),
    }

    // STATS stays valid JSON and carries the new SLO/window surfaces.
    let stats = client.stats().expect("STATS");
    validate_json(&stats).expect("stats JSON is valid");
    for key in [
        "\"deadline_missed\":",
        "\"slo\":",
        "\"window\":",
        "\"uptime_ms\":",
    ] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }

    // METRICS: well-formed exposition, deadline misses only where faulted,
    // SLO burn for the laggy tenant, and disk-cache eviction counters.
    let metrics_text = client.metrics().expect("METRICS");
    validate_exposition(&metrics_text)
        .unwrap_or_else(|e| panic!("exposition invalid: {e}\n{metrics_text}"));
    let miss = |tenant| {
        sample(
            &metrics_text,
            "td_serve_tenant_deadline_missed_total",
            tenant,
        )
    };
    assert_eq!(miss("laggy"), Some(4.0), "laggy missed all 4 deadlines");
    for tenant in ["steady", "bulk", "quiet"] {
        assert_eq!(
            miss(tenant),
            Some(0.0),
            "unfaulted tenant {tenant} must not miss deadlines"
        );
    }
    let burn = sample(&metrics_text, "td_serve_tenant_slo_burn", "laggy")
        .expect("laggy has an SLO burn series");
    assert!(burn > 1.0, "laggy must be burning budget, burn={burn}");
    assert_eq!(
        sample(&metrics_text, "td_serve_tenant_health", "laggy"),
        Some(2.0),
        "laggy health must be 'burning'"
    );
    let evicted = sample(&metrics_text, "td_serve_disk_evicted_total", "")
        .expect("disk eviction counter present");
    assert!(
        evicted > 0.0,
        "2KB cap over 16 distinct results must evict: {metrics_text}"
    );
    assert!(
        sample(&metrics_text, "td_serve_tenant_rate", "steady").is_some(),
        "windowed rate series present"
    );

    // The dashboard renders a frame from the same endpoints.
    let top = Command::new(gate::sibling("td_top"))
        .arg("--once")
        .env("TD_SERVE_SOCK", &socket)
        .output()
        .expect("run td_top");
    let frame = String::from_utf8_lossy(&top.stdout).into_owned();
    assert!(top.status.success(), "td_top failed: {frame}");
    for needle in ["TENANT", "laggy", "steady", "BURNING"] {
        assert!(
            frame.contains(needle),
            "td_top frame missing '{needle}':\n{frame}"
        );
    }

    gate::shut_down(child, &mut client);

    // Event log: JSON lines, request-id-correlated.
    let log = std::fs::read_to_string(&log_path).expect("event log exists");
    let lines: Vec<&str> = log.lines().collect();
    assert!(!lines.is_empty(), "event log is empty");
    for line in &lines {
        validate_json(line).unwrap_or_else(|e| panic!("bad event line: {e}\n{line}"));
    }
    let has = |event: &str, needle: &str| {
        lines
            .iter()
            .any(|l| l.contains(&format!("\"event\":\"{event}\"")) && l.contains(needle))
    };
    assert!(
        has("admit", &steady_requests[0]),
        "admission must log the request id"
    );
    assert!(
        laggy_requests.iter().any(|rid| has("deadline", rid)),
        "deadline expiry must log the request id"
    );
    assert!(
        has("refuse", "bad_request_id") || lines.iter().any(|l| l.contains("\"event\":\"refuse\"")),
        "refusals must be logged"
    );
    assert!(has("drain", "jobs"), "drain must be logged");

    let _ = std::fs::remove_dir_all(&base);
    println!(
        "serve obs act 1 OK: {} events logged, laggy burn {burn:.1}, {evicted:.0} entries evicted, \
         td_top frame rendered",
        lines.len()
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

fn overhead_gate() {
    const JOBS: usize = 16;
    let rounds = if gate::quick() { 201 } else { 401 };
    // Two one-tenant, two-worker services, the first started
    // `without_observability()`.
    let services = [false, true].map(|observe| {
        let config = ServiceConfig::new(vec![TenantConfig::new("t").with_fault_lane(3)]);
        Service::start(ServiceConfig {
            observe,
            ..config.with_workers(2)
        })
        .expect("service starts")
    });
    let script = script();
    // Side 0 is the unobserved service, side 1 the observed one; a round
    // feeds each `JOBS` submissions. Distinct payloads: every job really
    // runs transforms, so the plane's per-job cost is measured against
    // real work, not cache hits. Each service has its own cache, so both
    // sides run every payload once.
    let run = gate::paired(2, rounds, JOBS, |observe, i| {
        let payload = payload(i);
        let started = Instant::now();
        services[observe]
            .submit_wait("t", &script, payload, "main")
            .expect("admit")
            .result
            .expect("job succeeds");
        started.elapsed()
    });
    for service in &services {
        service.drain();
    }
    let spread = run.ratio(1, 0);
    let median = &run.rounds[spread.median_round];
    let overhead = spread.median - 1.0;
    println!(
        "serve obs act 3: {rounds} interleaved rounds of {JOBS} jobs: median round unobserved {:.3}ms, observed {:.3}ms, {spread}",
        median[0].as_secs_f64() * 1e3,
        median[1].as_secs_f64() * 1e3,
    );
    assert!(
        overhead < 0.03,
        "observability plane overhead {:.2}% >= 3%",
        overhead * 100.0
    );
    println!(
        "serve obs act 3 OK: observability overhead {:.2}% (< 3%)",
        overhead.max(0.0) * 100.0
    );
}

pub fn run() {
    // The smoke runs with metrics on, like the daemon does.
    metrics::reset();
    live_daemon();
    request_correlation();
    overhead_gate();
    println!("serve obs OK");
}
