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
//! interleaved pairs that alternate which service runs first.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use td_sched::JobError;
use td_serve::{validate_exposition, Client, ClientError, Service, ServiceConfig, TenantConfig};
use td_support::trace::validate_json;
use td_support::{fault, metrics, trace};

fn payload(i: usize) -> String {
    let extent = 32 * (i + 1);
    format!(
        r#"module {{
  func.func @work{i}(%x: memref<{extent}xf32>) {{
    %lo = arith.constant 0 : index
    %hi = arith.constant {extent} : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {{
      %v = "memref.load"(%x, %i) : (memref<{extent}xf32>, index) -> f32
      %w = "arith.addf"(%v, %v) : (f32, f32) -> f32
      "memref.store"(%w, %x, %i) : (f32, memref<{extent}xf32>, index) -> ()
    }}
    func.return
  }}
}}"#
    )
}

/// Two steps: match (0), tile (1) — fault plans target step=1.
const SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    %tiles, %points = "transform.loop.tile"(%loop) {tile_sizes = [8]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
  }
}"#;

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

fn sibling(binary: &str) -> PathBuf {
    let path = std::env::current_exe()
        .expect("own path")
        .with_file_name(binary);
    assert!(
        path.exists(),
        "{binary} missing at {} (build the workspace first)",
        path.display()
    );
    path
}

struct DaemonPaths {
    socket: PathBuf,
    cache: PathBuf,
    log: PathBuf,
}

fn spawn_daemon(paths: &DaemonPaths) -> Child {
    Command::new(sibling("td_serve"))
        .env("TD_SERVE_SOCK", &paths.socket)
        .env("TD_SERVE_CACHE_DIR", &paths.cache)
        .env("TD_SERVE_CACHE_MAX_BYTES", "2048")
        .env("TD_SERVE_LOG", &paths.log)
        .env(
            "TD_SERVE_TENANTS",
            "steady:weight=2,slo_ms=5000;laggy:deadline_ms=20,lane=9,slo_ms=1,slo_target=0.99;bulk;quiet",
        )
        // The sleep fires only in lane 9 — tenant `laggy` — and pushes
        // every laggy job past its 20ms deadline.
        .env("TD_FAULT", "sleep@ms=60,job=9")
        .env("TD_SERVE_WORKERS", "3")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn td_serve")
}

fn connect(
    socket: &Path,
) -> Client<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream> {
    for _ in 0..200 {
        if let Ok(stream) = std::os::unix::net::UnixStream::connect(socket) {
            let reader = stream.try_clone().expect("clone stream");
            return Client::new(reader, stream);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon never bound {}", socket.display());
}

fn live_daemon() {
    let base = std::env::temp_dir().join(format!("td-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("mkdir");
    let paths = DaemonPaths {
        socket: base.join("daemon.sock"),
        cache: base.join("cache"),
        log: base.join("events.jsonl"),
    };
    let mut child = spawn_daemon(&paths);
    let mut client = connect(&paths.socket);

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
            .submit_with_request("steady", SCRIPT, &payload(i), "main", supplied.as_deref())
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
            .submit_with_request("laggy", SCRIPT, &payload(50 + i), "main", None)
            .expect("laggy submit is admitted");
        assert!(done.output.is_err(), "laggy job {i} must miss its deadline");
        laggy_requests.push(done.request);
    }
    for i in 0..6 {
        client
            .submit("bulk", SCRIPT, &payload(100 + i), "main")
            .expect("bulk submit")
            .output
            .expect("bulk job succeeds");
    }

    // Malformed client-supplied ids refuse crisply.
    match client.submit_with_request("steady", SCRIPT, &payload(0), "main", Some("bad id!")) {
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
    let top = Command::new(sibling("td_top"))
        .arg("--once")
        .env("TD_SERVE_SOCK", &paths.socket)
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

    client.shutdown().expect("SHUTDOWN");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited dirty: {status}");

    // Event log: JSON lines, request-id-correlated.
    let mut log = String::new();
    std::fs::File::open(&paths.log)
        .expect("event log exists")
        .read_to_string(&mut log)
        .expect("read event log");
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
    let (boom_id, boom_rid) = service
        .submit_with_request("boom", SCRIPT, payload(7), "main", Some(RID))
        .expect("boom admits");
    let fine = service
        .submit_wait("fine", SCRIPT, payload(8), "main")
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
    let queue_span = chrome
        .split("{\"name\":")
        .find(|chunk| chunk.contains("\"queue_wait\"") && chunk.contains(RID));
    assert!(
        queue_span.is_some(),
        "queue_wait span tagged with the request id missing from trace"
    );
    let run_span = chrome
        .split("{\"name\":")
        .find(|chunk| chunk.contains("\"job\"") && chunk.contains(RID));
    assert!(
        run_span.is_some(),
        "engine job span tagged with the request id missing from trace"
    );
    println!(
        "serve obs act 2 OK: request id '{RID}' correlated across RESULT, report, flight, trace"
    );
}

/// A fresh one-tenant, two-worker service with the given observability
/// setting.
fn start_service(observe: bool) -> Service {
    let mut config =
        ServiceConfig::new(vec![TenantConfig::new("t").with_fault_lane(3)]).with_workers(2);
    if !observe {
        config = config.without_observability();
    }
    Service::start(config).expect("service starts")
}

fn overhead_gate() {
    let quick = std::env::var("TD_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (jobs, pairs) = if quick { (16, 201) } else { (16, 401) };
    let services = [start_service(false), start_service(true)];
    let mut submitted = 0;
    // One pair: the unobserved and the observed service fed `jobs`
    // submissions each, alternately, submission by submission
    // (`observed_first` says which leads), each timed on its own. Host
    // drift lasts far longer than one submission, so it lands on both
    // halves alike; a pair is short, so most pairs see no stall, and the
    // median pair shrugs off those that do.
    let mut pair = |observed_first: bool| -> (f64, f64) {
        let mut spent = [Duration::ZERO; 2];
        for i in 0..2 * jobs {
            let observe = usize::from((i % 2 == 0) == observed_first);
            // Distinct payloads: every job really runs transforms, so the
            // plane's per-job cost is measured against real work, not
            // cache hits. Each service has its own cache, so both halves
            // run every payload once.
            let payload = payload(submitted + i / 2);
            let started = Instant::now();
            services[observe]
                .submit_wait("t", SCRIPT, payload, "main")
                .expect("admit")
                .result
                .expect("job succeeds");
            spent[observe] += started.elapsed();
        }
        submitted += jobs;
        (spent[0].as_secs_f64(), spent[1].as_secs_f64())
    };
    pair(false); // warm-up, discarded
    let mut timed: Vec<(f64, f64)> = (0..pairs).map(|i| pair(i % 2 == 1)).collect();
    for service in &services {
        service.drain();
    }
    let ratio = |&(unobserved, observed): &(f64, f64)| observed / unobserved;
    timed.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let median = timed[pairs / 2];
    let overhead = ratio(&median) - 1.0;
    println!(
        "serve obs act 3: {pairs} interleaved pairs of {jobs} jobs: median pair unobserved {:.3}ms, observed {:.3}ms, ratio {:.3} (min {:.3}, max {:.3})",
        median.0 * 1e3,
        median.1 * 1e3,
        ratio(&median),
        ratio(&timed[0]),
        ratio(&timed[pairs - 1]),
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

fn main() {
    // The smoke runs with metrics on, like the daemon does.
    metrics::reset();
    live_daemon();
    request_correlation();
    overhead_gate();
    println!("serve obs OK");
}
