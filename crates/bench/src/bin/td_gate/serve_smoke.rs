//! CI smoke check for td-serve, in three acts.
//!
//! **Act 1 — warm restarts (subprocess).** Spawns the real `td_serve`
//! daemon binary in stdio mode with a persistent cache directory, runs a
//! mixed two-tenant batch cold, shuts the daemon down, starts a *fresh*
//! daemon process over the same directory, and reruns the batch (with the
//! tenants swapped — content addressing shares results across tenants).
//! Fails unless the warm run is byte-identical to the cold run and >90%
//! of warm jobs are served by the on-disk cache.
//!
//! **Act 2 — multi-tenant chaos soak (in-process).** Installs a TD_FAULT
//! plan targeting three tenants' fault lanes with three fault kinds —
//! silenceable (absorbed by that tenant's retry budget), panic (contained
//! by the engine), and sleep-past-deadline — while a fourth, unfaulted
//! tenant runs the same interleaved workload. Fails unless the unfaulted
//! tenant's outputs are byte-identical to a no-fault baseline (tenant
//! isolation), every faulted tenant shows exactly its configured failure
//! mode, every failed schedule's `bisect` artifact can be fetched while the
//! plan is still armed, and the drain delivers every admitted job (clean
//! shutdown).
//!
//! **Act 3 — diagnostics on demand (subprocess).** Failing jobs against
//! the real daemon, counting bisections in its `METRICS`: none until a
//! `bisect` artifact is fetched, one per distinct fetch, none for a
//! refetch. A daemon that bisects unasked fails here by exact count.
//!
//! ```text
//! cargo run --release -p td-bench --bin td_gate -- serve_smoke
//! ```

use std::path::Path;
use std::process::{Child, Command};
use td_bench::gate::{self, StdioClient};
use td_sched::JobError;
use td_serve::{Service, ServiceConfig, TenantConfig};
use td_support::fault;

/// The gate's `i`-th payload.
fn payload(i: usize) -> String {
    gate::loop_payload(i, 32)
}

/// Extracts `"key":<u64>` from a flat JSON string (the stats surface).
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("stats JSON missing {key}: {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {key} in {json}"))
}

/// A fresh daemon over `cache_dir` and a client on its stdio, PING answered.
fn connect_daemon(cache_dir: &Path) -> (Child, StdioClient) {
    gate::spawn_stdio(
        Command::new(gate::sibling("td_serve"))
            .env_remove("TD_FAULT")
            .env("TD_SERVE_CACHE_DIR", cache_dir)
            .env("TD_SERVE_TENANTS", "alpha:weight=2;beta")
            .env("TD_SERVE_WORKERS", "2"),
    )
}

/// One daemon lifetime: submit `jobs` alternating between the two
/// tenants (`swap` flips which tenant asks), return the outputs plus the
/// daemon's final disk-hit count.
fn run_session(cache_dir: &Path, jobs: usize, swap: bool) -> (Vec<String>, u64, u64) {
    let (child, mut client) = connect_daemon(cache_dir);
    let script = gate::tile_schedule("main", 8, None);
    let batch_started = std::time::Instant::now();
    let mut outputs = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let tenant = if (i % 2 == 0) ^ swap { "alpha" } else { "beta" };
        let done = client
            .submit(tenant, &script, &payload(i), "main")
            .unwrap_or_else(|e| panic!("submit {i} as {tenant}: {e}"));
        outputs.push(
            done.output
                .unwrap_or_else(|e| panic!("job {i} failed: {e}")),
        );
    }
    let batch_wall = batch_started.elapsed();
    let stats = client.stats().expect("STATS");
    let disk_hits = json_u64(&stats, "disk_hits");
    let completed = json_u64(&stats, "jobs_completed");
    gate::shut_down(child, &mut client);
    println!(
        "  session ({}): {jobs} jobs in {:.1} ms ({:.0} jobs/s), {disk_hits} disk hit(s)",
        if swap {
            "warm, tenants swapped"
        } else {
            "cold"
        },
        batch_wall.as_secs_f64() * 1e3,
        jobs as f64 / batch_wall.as_secs_f64(),
    );
    (outputs, disk_hits, completed)
}

fn restart_smoke() {
    let cache_dir =
        std::env::temp_dir().join(format!("td-serve-smoke-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let jobs = 12;

    let (cold_outputs, cold_disk_hits, cold_completed) = run_session(&cache_dir, jobs, false);
    assert_eq!(cold_completed, jobs as u64);
    assert_eq!(cold_disk_hits, 0, "a cold daemon has nothing on disk");

    // Fresh process, same directory, tenants swapped: every job must be
    // served from the persistent layer.
    let (warm_outputs, warm_disk_hits, warm_completed) = run_session(&cache_dir, jobs, true);
    assert_eq!(warm_completed, jobs as u64);
    assert_eq!(
        warm_outputs, cold_outputs,
        "warm outputs diverge from the cold run"
    );
    let warm_rate = warm_disk_hits as f64 / jobs as f64;
    assert!(
        warm_rate > 0.9,
        "restart must warm-start from disk: {warm_disk_hits}/{jobs} hits"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "serve restart smoke OK: {jobs} jobs cold, {warm_disk_hits}/{jobs} served from disk \
         after restart ({:.0}%)",
        warm_rate * 100.0
    );
}

fn chaos_soak() {
    // Three fault kinds, each scoped to one tenant's lane; `steady` (lane
    // 11) is in none of them.
    fault::set_plan(Some(
        // The schedule runs two transforms, so per-lane hit indices 0 and
        // 1 exist; `step=1` fires on the second transform of every job in
        // that lane.
        fault::FaultPlan::parse("silenceable@job=7,step=1;panic@job=8,step=1;sleep@ms=60,job=9")
            .expect("plan parses"),
    ));
    let tenants = vec![
        TenantConfig::new("steady")
            .with_weight(2)
            .with_fault_lane(11),
        TenantConfig::new("flaky")
            .with_fault_lane(7)
            .with_max_attempts(2),
        TenantConfig::new("crashy")
            .with_fault_lane(8)
            .with_failure_budget(8),
        TenantConfig::new("laggy")
            .with_fault_lane(9)
            .with_deadline_ms(20),
    ];
    let service = Service::start(ServiceConfig::new(tenants).with_workers(3)).unwrap();

    // Interleave all four tenants so faulted and unfaulted jobs share the
    // worker pool concurrently — the condition isolation must survive.
    // Payloads are disjoint per tenant: the cache is shared and content-
    // addressed, so identical inputs would be (correctly!) served from
    // memory without ever reaching a faultpoint.
    let per_tenant = 5;
    let script = gate::tile_schedule("main", 8, None);
    let mut ids: Vec<(String, u64)> = Vec::new();
    for i in 0..per_tenant {
        for (slot, tenant) in ["steady", "flaky", "crashy", "laggy"]
            .into_iter()
            .enumerate()
        {
            let id = service
                .submit(tenant, &script, payload(100 * slot + i), "main")
                .unwrap_or_else(|e| panic!("admitting {tenant} job {i}: {e}"));
            ids.push((tenant.to_owned(), id));
        }
    }
    let mut steady_outputs = Vec::new();
    let mut crashy_failures = 0;
    for (tenant, id) in ids {
        let done = service.wait(id);
        match tenant.as_str() {
            "steady" => {
                let output = done
                    .result
                    .unwrap_or_else(|e| panic!("unfaulted tenant hit a fault: {e}"));
                steady_outputs.push(output.module_text);
            }
            "flaky" => {
                // The silenceable fault fires once per job; the tenant's
                // retry budget absorbs it invisibly.
                let output = done
                    .result
                    .unwrap_or_else(|e| panic!("retry budget must absorb the fault: {e}"));
                assert_eq!(output.attempts, 2, "flaky jobs succeed on attempt 2");
            }
            "crashy" => {
                // The transactional interpreter contains the panic, rolls
                // the payload back, and reports a definite failure.
                match done.result {
                    Err(JobError::Transform {
                        message,
                        silenceable,
                    }) => {
                        assert!(message.contains("panicked"), "{message}");
                        assert!(!silenceable);
                        crashy_failures += 1;
                    }
                    other => panic!("crashy job: expected contained panic, got {other:?}"),
                }
                // Failed jobs leave retrievable diagnostics. The bisection
                // runs here, on the fetching thread, with the plan still
                // armed: its probes panic in the tenant's lane exactly as
                // the job did, and are contained exactly as the job was.
                assert!(
                    service.artifact(done.job_id, "flight").is_some(),
                    "failed job {} must retain a flight bundle",
                    done.job_id
                );
                let repro = service
                    .artifact(done.job_id, "bisect")
                    .unwrap_or_else(|| panic!("failed job {} must bisect", done.job_id));
                assert!(
                    repro.starts_with("failing prefix: 2 of 3 step(s)")
                        && repro.contains("panicked")
                        && repro.contains("transform.loop.tile"),
                    "{repro}"
                );
            }
            "laggy" => {
                match done.result {
                    Err(JobError::DeadlineExceeded) => {}
                    other => panic!("laggy job: expected deadline miss, got {other:?}"),
                }
                // Slow is not broken: there is no schedule failure to find.
                assert_eq!(service.artifact_kinds(done.job_id), ["report", "flight"]);
                assert_eq!(service.artifact(done.job_id, "bisect"), None);
            }
            _ => unreachable!(),
        }
    }
    assert_eq!(crashy_failures, per_tenant);
    let summary = service.drain();
    assert_eq!(
        summary.jobs,
        (per_tenant * 4) as u64,
        "drain must deliver every admitted job"
    );
    fault::set_plan(None);

    // The isolation gate: the unfaulted tenant's outputs must be
    // byte-identical to a run with no fault plan installed at all.
    let baseline_service =
        Service::start(ServiceConfig::new(vec![TenantConfig::new("steady")])).unwrap();
    let baseline: Vec<String> = (0..per_tenant)
        .map(|i| {
            baseline_service
                .submit_wait("steady", &script, payload(i), "main")
                .unwrap()
                .result
                .unwrap()
                .module_text
        })
        .collect();
    baseline_service.drain();
    assert_eq!(
        steady_outputs, baseline,
        "cross-tenant fault leakage: unfaulted tenant's outputs changed"
    );
    println!(
        "serve chaos soak OK: 3 faulted tenants contained, {} failures bisected under the armed \
         plan, {} unfaulted jobs byte-identical, {} jobs drained cleanly",
        crashy_failures, per_tenant, summary.jobs
    );
}

fn diagnostics_on_demand() {
    let cache_dir =
        std::env::temp_dir().join(format!("td-serve-smoke-diag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (child, mut client) = connect_daemon(&cache_dir);
    // The daemon's own count of bisections run (absent until the first).
    let bisections = |client: &mut StdioClient| -> u64 {
        let metrics = client.metrics().expect("METRICS");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix("td_internal_sched_bisections_total "))
            .map_or(0, |n| n.parse().expect("counter value"))
    };

    let failures = 8;
    let failed_jobs: Vec<u64> = (0..failures)
        .map(|i| {
            let done = client
                .submit("alpha", gate::FAILING_SCRIPT, &payload(i), "main")
                .unwrap_or_else(|e| panic!("submit {i}: {e}"));
            assert!(done.output.is_err(), "job {i} must fail at step 2");
            done.job_id
        })
        .collect();
    // Failures are never cached: the same jobs again re-execute and fail.
    for i in 0..failures {
        let again = client
            .submit("beta", gate::FAILING_SCRIPT, &payload(i), "main")
            .expect("resubmit");
        assert!(again.output.is_err() && !again.cached);
    }
    assert_eq!(
        bisections(&mut client),
        0,
        "{} failed jobs and no ARTIFACT request: the daemon must not bisect unasked",
        2 * failures
    );

    let fetched = 3;
    let repros: Vec<String> = failed_jobs[..fetched]
        .iter()
        .map(|&job| client.artifact(job, "bisect").expect("bisect artifact"))
        .collect();
    for repro in &repros {
        assert!(
            repro.starts_with("failing prefix: 2 of 4 step(s)") && !repro.contains("never"),
            "{repro}"
        );
    }
    assert_eq!(bisections(&mut client), fetched as u64);
    for (&job, repro) in failed_jobs.iter().zip(&repros) {
        assert_eq!(&client.artifact(job, "bisect").expect("refetch"), repro);
    }
    assert_eq!(
        bisections(&mut client),
        fetched as u64,
        "a refetch is served from the memoised text"
    );

    gate::shut_down(child, &mut client);
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "serve diagnostics OK: {} failed jobs, 0 bisections unasked, {fetched} on {fetched} \
         fetches, {fetched} after refetching them",
        2 * failures
    );
}

pub fn run() {
    restart_smoke();
    chaos_soak();
    diagnostics_on_demand();
    println!("serve smoke OK");
}
