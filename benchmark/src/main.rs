//! `td-ledger`: the repository's benchmark — four workloads, their
//! end-to-end metrics and a per-layer ledger, all measured from outside
//! through public functions. `benchmark/run.sh` builds and runs it; see
//! `benchmark/README.md`.

mod gen;
mod json;
mod layers;
mod ledger;
mod models;
mod reference;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;
mod traced;
mod workload;

use ledger::{Stamp, WorkloadEntry};
use std::path::Path;
use std::time::Instant;
use workload::{measure, Measured, Scale, Workload, DEFAULT_SEED, OUT_DIR, WORKLOADS};

/// The committed digests of the default seed's inputs and references.
const GOLDEN: &str = "benchmark/golden/seed-default.digests";

/// Sets workload `name` up.
fn setup_workload(name: &str, seed: u64, scale: &Scale) -> Box<dyn Workload> {
    let t = workload::parallelism();
    match name {
        "models_direct" => Box::new(models::ModelsDirect::setup(seed)),
        "sweep_engine" => Box::new(sweep::SweepEngine::setup(seed, scale, t)),
        "serve_cold" => Box::new(serve::ServeCold::setup(seed, scale, t)),
        "serve_warm" => Box::new(serve::ServeWarm::setup(seed, scale, t)),
        other => fail(&format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Set-ups timed per untraced run: the one the rounds run on, and three
/// more, spread evenly over the run and thrown away.
const SETUPS: usize = 4;

/// An untraced run of a workload.
struct Untraced {
    measured: Measured,
    /// Every set-up's time in seconds; `setup_s` is the fastest.
    setup_times: Vec<f64>,
    /// Digest of the workload's inputs and references.
    digest: u64,
    /// Whether the digest matched the committed one (default seed only).
    golden: bool,
}

/// Sets `name` up and measures it for `seconds`. The set-up is repeated at
/// each quarter of the run (between rounds, outside the measured time) for
/// the reason the rounds' times are the best of many: a set-up lasts a
/// fraction of a second to a few seconds, and repeats bunched at the start
/// of a run all meet the host in the same state.
fn untraced(name: &str, seed: u64, scale: &Scale, seconds: f64, min_rounds: usize) -> Untraced {
    let mut setup_times = Vec::new();
    let mut timed_setup = || {
        let started = Instant::now();
        let w = setup_workload(name, seed, scale);
        setup_times.push(started.elapsed().as_secs_f64());
        w
    };
    let mut w = timed_setup();
    let digest = w.digest();
    let golden = golden_ok(name, seed, scale, digest);
    let mut next = seconds / SETUPS as f64;
    let measured = measure(w.as_mut(), seconds, min_rounds, &mut |spent| {
        if spent >= next && next < seconds {
            next += seconds / SETUPS as f64;
            drop(timed_setup());
        }
    });
    Untraced {
        measured,
        setup_times,
        digest,
        golden,
    }
}

fn fail(message: &str) -> ! {
    eprintln!("td-ledger: {message}");
    std::process::exit(2);
}

fn scale_name(scale: &Scale) -> &'static str {
    if *scale == Scale::FULL {
        "full"
    } else {
        "check"
    }
}

/// At the default seed, the workload's digest must equal the committed
/// one; at any other seed there is nothing to compare with.
fn golden_ok(name: &str, seed: u64, scale: &Scale, digest: u64) -> bool {
    if seed != DEFAULT_SEED {
        return true;
    }
    let key = format!("{}.{name}", scale_name(scale));
    let Ok(golden) = std::fs::read_to_string(GOLDEN) else {
        eprintln!("td-ledger: {GOLDEN} is missing");
        return false;
    };
    let want = golden
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.trim().to_owned());
    let seen = format!("{digest:016x}");
    if want.as_deref() != Some(seen.as_str()) {
        eprintln!("td-ledger: digest of {key} is {seen}, golden says {want:?}");
        return false;
    }
    true
}

/// One driver run: `--workload W --seed N --seconds S --trace 0|1`.
fn driver_run(name: &str, seed: u64, seconds: f64, trace: bool) {
    let scale = Scale::FULL;
    let line = if trace {
        let run = traced::run(name, seed, &scale, seconds);
        write_out(&format!("trace-{name}.json"), &run.trace_json);
        let m = &run.measured;
        let failed = m.failed + run.replay_failed as usize;
        ledger::result_line(
            failed == 0 && m.deterministic,
            m.attempted,
            failed,
            &ledger::per_layer_metrics(&run.layers),
        )
    } else {
        let run = untraced(name, seed, &scale, seconds, 3);
        let m = &run.measured;
        let values = ledger::end_to_end(m, &run.setup_times);
        ledger::result_line(
            m.failed == 0 && m.deterministic && run.golden,
            m.attempted,
            m.failed,
            &ledger::end_to_end_metrics(&values),
        )
    };
    println!("{line}");
}

fn write_out(name: &str, content: &str) {
    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    std::fs::write(Path::new(OUT_DIR).join(name), content).expect("write output file");
}

/// One workload, untraced then traced, in this process; prints its ledger
/// section. The parent ([`full_ledger`]) runs one of these per workload so
/// each workload's peak memory and CPU time are its own.
fn section(name: &'static str, stamp: &Stamp, min_rounds: usize) {
    eprintln!("td-ledger: {name}: untraced");
    let Untraced {
        measured,
        setup_times,
        digest,
        golden,
    } = untraced(name, stamp.seed, &stamp.scale, stamp.seconds, min_rounds);
    eprintln!("td-ledger: {name}: traced");
    let run = traced::run(name, stamp.seed, &stamp.scale, stamp.seconds);
    write_out(&format!("trace-{name}.json"), &run.trace_json);
    let traced_ok =
        golden && run.replay_failed == 0 && run.measured.failed == 0 && run.measured.deterministic;
    println!(
        "{}",
        ledger::section(&WorkloadEntry {
            end_to_end: ledger::end_to_end(&measured, &setup_times),
            measured,
            layers: run.layers,
            traced_ok,
            digest,
        })
    );
}

/// Every workload untraced, then traced, each in a child process; prints
/// every metric by name with its unit and writes the ledger. Returns whether
/// everything was correct.
fn full_ledger(stamp: &Stamp, mode: &str, file: &str) -> bool {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let exe = std::env::current_exe().expect("own path");
    let mut sections = Vec::new();
    for name in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["section", mode, "--workload", name])
            .args(["--seed", &stamp.seed.to_string()])
            .args(["--seconds", &stamp.seconds.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload in a child process");
        if !output.status.success() {
            eprintln!("td-ledger: workload {name} failed: {}", output.status);
            return false;
        }
        sections.push((name, String::from_utf8_lossy(&output.stdout).into_owned()));
    }
    let text = match ledger::assemble(stamp, &loadavg, &sections) {
        Ok(text) => text,
        Err(problem) => {
            eprintln!("td-ledger: {problem}");
            return false;
        }
    };
    write_out(file, &text);
    if let Err(problem) = ledger::validate(&text) {
        eprintln!("td-ledger: {OUT_DIR}/{file} fails the ledger schema: {problem}");
        return false;
    }
    let doc = json::parse(&text).expect("validated above");
    ledger::print_report(&doc);
    println!("wrote {OUT_DIR}/{file}");
    matches!(doc.get("correct"), Some(json::Value::Bool(true)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let number = |name: &str, default: f64| -> f64 {
        value(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{name} needs a number, got '{v}'")))
        })
    };
    let seed = value("--seed").map_or(DEFAULT_SEED, |v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--seed needs a whole number, got '{v}'")))
    });
    let stamp = |scale: Scale, seconds: f64| Stamp {
        commit: value("--commit").unwrap_or_else(|| "unknown".into()),
        seed,
        rustc: value("--rustc").unwrap_or_else(|| "unknown".into()),
        seconds,
        scale,
    };

    match args.first().map(String::as_str) {
        Some("manifest") => print!("{}", ledger::manifest()),
        Some("digests") => {
            for scale in [Scale::FULL, Scale::CHECK] {
                for name in WORKLOADS {
                    let w = setup_workload(name, seed, &scale);
                    println!("{}.{name} {:016x}", scale_name(&scale), w.digest());
                }
            }
        }
        Some("compare") => {
            let read = |path: Option<&String>| {
                let path = path.unwrap_or_else(|| fail("compare needs two ledger files"));
                std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
            };
            let manifest = std::fs::read_to_string("BENCHMARK.json")
                .unwrap_or_else(|e| fail(&format!("cannot read BENCHMARK.json: {e}")));
            match ledger::compare(&manifest, &read(args.get(1)), &read(args.get(2))) {
                Ok((report, regressed)) => {
                    print!("{report}");
                    std::process::exit(i32::from(regressed));
                }
                Err(problem) => fail(&problem),
            }
        }
        Some("--check") => {
            // One round per workload at the small scale, full verification
            // and the ledger's schema check.
            let ok = full_ledger(&stamp(Scale::CHECK, 0.0), "check", "ledger-check.json");
            std::process::exit(i32::from(!ok));
        }
        Some("section") => {
            let name = value("--workload").unwrap_or_default();
            let Some(name) = WORKLOADS.into_iter().find(|w| *w == name) else {
                fail(&format!(
                    "section needs --workload, one of {}",
                    WORKLOADS.join(", ")
                ));
            };
            let seconds = number("--seconds", ledger::RUN_SECONDS as f64);
            if args.get(1).map(String::as_str) == Some("check") {
                section(name, &stamp(Scale::CHECK, 0.0), 1);
            } else {
                section(name, &stamp(Scale::FULL, seconds), 3);
            }
        }
        _ => match value("--workload") {
            Some(name) => driver_run(
                &name,
                seed,
                number("--seconds", ledger::RUN_SECONDS as f64),
                number("--trace", 0.0) != 0.0,
            ),
            None => {
                let seconds = number("--seconds", ledger::RUN_SECONDS as f64);
                let ok = full_ledger(&stamp(Scale::FULL, seconds), "full", "ledger.json");
                std::process::exit(i32::from(!ok));
            }
        },
    }
}
