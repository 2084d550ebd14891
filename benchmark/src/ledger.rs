//! The machine-readable side: end-to-end metric definitions, the result
//! line the driver reads, `ledger.json`, its schema check, `BENCHMARK.json`
//! generation and the regression comparison.

use crate::json::{self, quote, Value};
use crate::layers::{self, Layers};
use crate::stats;
use crate::workload::{Measured, Scale, Timed, WORKLOADS};
use std::fmt::Write as _;

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: name, unit, direction, regression bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics with a bound, as `BENCHMARK.json` lists them.
/// `failed_share` is the seventh end-to-end metric of the ledger; it must
/// be 0, and a metric that is 0 has no relative bound, so the driver gates
/// on it through the result line's `failed` / `attempted` / `correct`
/// instead.
///
/// Every bound is the widest the manifest allows. On the shared 2-core host
/// the baseline was taken on, back-to-back runs of one binary
/// differ by 3–17% (interquartile range over the median) on the timed
/// metrics whatever statistic a run reports, because the host's speed
/// drifts over minutes; a narrower bound would reject the benchmark against
/// itself.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_job",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Why each workload exists, one line each (`BENCHMARK.json` `why`).
pub const WHY: [&str; 4] = [
    "Table 1's five models, text in to text out on one thread: interpreter, passes, undo log and print do the work; engine, cache and service do none",
    "autotuning sweep of the Fig. 8 schedule grid over seeded matmul shapes plus cached revisits: engine fan-out, loop transforms, cache insert, eviction and hits",
    "real td_serve daemon, empty cache, every corpus job once: framing, protocol, fair queue, single-job engine batches, both parses, interp, print, disk write-through",
    "same daemon restarted over a filled cache dir, Zipf requests: memory hits, disk hits and re-executed expected failures; parse, fingerprint and dispatch are the latency",
];

/// One workload's end-to-end values, each with the samples its spread is
/// judged by.
///
/// `(name, value, samples)`: for the timed metrics the samples are the run's
/// four every-fourth-round estimates, for memory the rounds, for set-up the
/// repeats.
pub type EndToEndValues = Vec<(&'static str, f64, Vec<f64>)>;

/// The end-to-end metrics of a measured run. `setup_s` is the fastest of the
/// set-up repeats, like every other time here (see `workload::best_of`).
pub fn end_to_end(measured: &Measured, setup_samples: &[f64]) -> EndToEndValues {
    let timed = |value: fn(&Timed) -> f64| {
        let samples = measured.groups.iter().map(value).collect();
        (value(&measured.best), samples)
    };
    let (jobs_per_s, jobs_per_s_samples) = timed(|t| t.jobs_per_s);
    let (p50, p50_samples) = timed(|t| t.job_ms_p50);
    let (p95, p95_samples) = timed(|t| t.job_ms_p95);
    let (cpu, cpu_samples) = timed(|t| t.cpu_ms_per_job);
    let setup_s = setup_samples.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        ("jobs_per_s", jobs_per_s, jobs_per_s_samples),
        ("job_ms_p50", p50, p50_samples),
        ("job_ms_p95", p95, p95_samples),
        ("cpu_ms_per_job", cpu, cpu_samples),
        (
            "peak_rss_mb",
            measured.peak_rss_mb(),
            measured.peak_rss_mb_rounds.clone(),
        ),
        ("setup_s", setup_s, setup_samples.to_vec()),
    ]
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("share", |m| m.unit)
}

/// The last line of a driver run: `correct`, `attempted`, `failed` and the
/// metrics with their units.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            quote(name),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

/// The end-to-end metrics in result-line form.
pub fn end_to_end_metrics(values: &EndToEndValues) -> Vec<(String, f64, &'static str)> {
    values
        .iter()
        .map(|(name, value, _)| ((*name).to_owned(), *value, unit_of(name)))
        .collect()
}

/// The per-layer metrics in result-line form, in table order.
pub fn per_layer_metrics(layers: &Layers) -> Vec<(String, f64, &'static str)> {
    layers::metric_table()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = layers[&name];
            (name, value, unit)
        })
        .collect()
}

/// `BENCHMARK.json`, generated from the tables above so the manifest, the
/// binary and the ledger cannot drift apart.
pub fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().zip(WHY).enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            quote(name),
            quote(why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let table = layers::metric_table();
    for (i, (name, unit, better)) in table.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            quote(name),
            quote(unit),
            quote(better),
            if i + 1 < table.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Where a ledger came from.
pub struct Stamp {
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// Seconds each untraced phase measured.
    pub seconds: f64,
    /// Round sizes.
    pub scale: Scale,
}

/// One workload's section of the ledger.
pub struct WorkloadEntry {
    /// The untraced run.
    pub measured: Measured,
    /// Its end-to-end values.
    pub end_to_end: EndToEndValues,
    /// The traced run's per-layer values.
    pub layers: Layers,
    /// Whether the traced run's rounds and replay also matched the
    /// references and repeated exactly, and the golden digest matched.
    pub traced_ok: bool,
    /// Digest of the workload's inputs and reference outputs.
    pub digest: u64,
}

impl WorkloadEntry {
    /// No wrong outcome anywhere, and every exact count repeated.
    pub fn correct(&self) -> bool {
        self.measured.failed == 0 && self.measured.deterministic && self.traced_ok
    }
}

fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Renders one workload's section of the ledger: a JSON object. Each
/// workload is measured in a process of its own (so peak memory and CPU time
/// are that workload's alone); this is what the process hands back.
pub fn section(entry: &WorkloadEntry) -> String {
    let m = &entry.measured;
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "      \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \
         \"latency_samples\": {}, \"deterministic\": {}, \"correct\": {}, \"digest\": {},",
        m.rounds,
        m.attempted,
        m.failed,
        m.failed_share(),
        m.latency_samples,
        m.deterministic,
        entry.correct(),
        quote(&format!("{:016x}", entry.digest)),
    );
    out.push_str("      \"end_to_end\": {\n");
    for (j, (name, value, samples)) in entry.end_to_end.iter().enumerate() {
        let _ = writeln!(
            out,
            "        {}: {{\"value\": {value}, \"unit\": {}, \"samples\": {}}}{}",
            quote(name),
            quote(unit_of(name)),
            number_list(samples),
            if j + 1 < entry.end_to_end.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("      },\n      \"per_layer\": {\n");
    let table = layers::metric_table();
    for (j, (name, unit, _)) in table.iter().enumerate() {
        let _ = writeln!(
            out,
            "        {}: {{\"value\": {}, \"unit\": {}}}{}",
            quote(name),
            entry.layers[name],
            quote(unit),
            if j + 1 < table.len() { "," } else { "" }
        );
    }
    out.push_str("      }\n    }");
    out
}

/// Assembles `ledger.json` from the stamp and the workloads' sections.
///
/// # Errors
/// A section that is not a JSON object with `deterministic` and `correct`.
pub fn assemble(
    stamp: &Stamp,
    loadavg: &str,
    sections: &[(&str, String)],
) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut flags = [true, true];
    for (name, text) in sections {
        let doc = json::parse(text).map_err(|e| format!("section {name}: {e}"))?;
        for (flag, key) in flags.iter_mut().zip(["deterministic", "correct"]) {
            match doc.get(key) {
                Some(Value::Bool(value)) => *flag &= value,
                _ => return Err(format!("section {name} lacks {key}")),
            }
        }
    }
    let mut out = String::from("{\n  \"schema\": \"td-ledger/1\",\n");
    let _ = writeln!(
        out,
        "  \"stamp\": {{\"commit\": {}, \"seed\": {}, \"nproc\": {nproc}, \"workers\": {}, \
         \"rustc\": {}, \"loadavg_at_start\": {}, \"seconds\": {}, \"corpus\": {}, \
         \"warm_draws\": {}, \"sweep_shapes\": {}}},",
        quote(&stamp.commit),
        stamp.seed,
        crate::workload::parallelism(),
        quote(&stamp.rustc),
        quote(loadavg.trim()),
        stamp.seconds,
        stamp.scale.corpus,
        stamp.scale.warm_draws,
        stamp.scale.sweep_shapes,
    );
    let _ = writeln!(
        out,
        "  \"deterministic\": {},\n  \"correct\": {},",
        flags[0], flags[1]
    );
    out.push_str("  \"workloads\": {\n");
    for (i, (name, text)) in sections.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}: {}{}",
            quote(name),
            text.trim(),
            if i + 1 < sections.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    Ok(out)
}

/// Prints every metric of a ledger by name, with its unit.
pub fn print_report(ledger: &Value) {
    let workloads = |f: &mut dyn FnMut(&str, &Value)| {
        for name in WORKLOADS {
            if let Some(entry) = ledger.get("workloads").and_then(|w| w.get(name)) {
                f(name, entry);
            }
        }
    };
    let number = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!("== end to end ==");
    println!("{:<14} {:<16} {:>14} unit", "workload", "metric", "value");
    workloads(&mut |name, entry| {
        for metric in &END_TO_END {
            let value = number(
                entry
                    .get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(|m| m.get("value")),
            );
            println!(
                "{name:<14} {:<16} {value:>14.4} {}",
                metric.name, metric.unit
            );
        }
        println!(
            "{name:<14} {:<16} {:>14.4} share ({} of {} jobs wrong; {} rounds, {} latency samples)",
            "failed_share",
            number(entry.get("failed_share")),
            number(entry.get("failed")),
            number(entry.get("attempted")),
            number(entry.get("rounds")),
            number(entry.get("latency_samples")),
        );
    });
    println!("\n== per layer ==");
    print!("{:<46} {:<6}", "metric", "unit");
    workloads(&mut |name, _| print!(" {name:>14}"));
    println!();
    for (metric, unit, _) in layers::metric_table() {
        print!("{metric:<46} {unit:<6}");
        workloads(&mut |_, entry| {
            let value = number(
                entry
                    .get("per_layer")
                    .and_then(|p| p.get(&metric))
                    .and_then(|m| m.get("value")),
            );
            print!(" {value:>14.4}");
        });
        println!();
    }
    for key in ["deterministic", "correct"] {
        println!(
            "{key}: {}",
            matches!(ledger.get(key), Some(Value::Bool(true)))
        );
    }
}

/// Checks that `text` is a complete ledger: every workload, every
/// end-to-end metric with samples, every per-layer metric, and shares that
/// sum to 1.
///
/// # Errors
/// The first thing that is missing or malformed.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some("td-ledger/1") {
        return Err("schema is not td-ledger/1".into());
    }
    for key in [
        "commit",
        "seed",
        "nproc",
        "workers",
        "rustc",
        "loadavg_at_start",
    ] {
        doc.get("stamp")
            .and_then(|s| s.get(key))
            .ok_or(format!("stamp lacks {key}"))?;
    }
    for key in ["deterministic", "correct"] {
        if !matches!(doc.get(key), Some(Value::Bool(_))) {
            return Err(format!("{key} is not a boolean"));
        }
    }
    for workload in WORKLOADS {
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!("workload {workload} is missing"))?;
        entry
            .get("failed_share")
            .and_then(Value::as_f64)
            .ok_or(format!("{workload} lacks failed_share"))?;
        for metric in &END_TO_END {
            let m = entry
                .get("end_to_end")
                .and_then(|e| e.get(metric.name))
                .ok_or(format!("{workload} lacks {}", metric.name))?;
            let value = m.get("value").and_then(Value::as_f64);
            if !value.is_some_and(|v| v > 0.0) {
                return Err(format!("{workload}.{} is not positive", metric.name));
            }
            if m.get("samples").is_none_or(|s| s.elements().is_empty()) {
                return Err(format!("{workload}.{} has no samples", metric.name));
            }
        }
        let mut shares = 0.0;
        for (name, _, _) in layers::metric_table() {
            let value = entry
                .get("per_layer")
                .and_then(|p| p.get(&name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{workload} lacks {name}"))?;
            if name.starts_with("share.") {
                shares += value;
            }
        }
        if (shares - 1.0).abs() > 1e-9 {
            return Err(format!("{workload}: shares sum to {shares}, not 1"));
        }
    }
    Ok(())
}

/// Verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second ledger is no worse than the first by more than the bound.
    Within,
    /// It is worse by more than the bound.
    Regressed,
    /// The spread between rounds is wider than the bound on one side, so
    /// the medians cannot settle it.
    Unresolved,
}

/// Compares `after` with `before` on one metric. `better` is `lower` or
/// `higher`; spreads are each side's round IQR over its median.
pub fn verdict(
    before: f64,
    after: f64,
    better: &str,
    bound: f64,
    spread_before: f64,
    spread_after: f64,
) -> (Verdict, f64) {
    let worse_by = match better {
        "higher" => (before - after) / before,
        _ => (after - before) / before,
    };
    let verdict = if spread_before.max(spread_after) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

/// Compares two ledgers against the bounds in `manifest` (the text of
/// `BENCHMARK.json`). Returns the report and whether anything regressed.
///
/// # Errors
/// A ledger or the manifest that does not parse, or lacks a metric.
pub fn compare(manifest: &str, before: &str, after: &str) -> Result<(String, bool), String> {
    let manifest = json::parse(manifest)?;
    let (before, after) = (json::parse(before)?, json::parse(after)?);
    let mut report = format!(
        "{:<14} {:<15} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "before", "after", "worse_by", "bound", "spread"
    );
    let mut regressed = false;
    let field = |doc: &Value, workload: &str, metric: &str| -> Result<(f64, f64), String> {
        let m = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get(metric))
            .ok_or(format!("ledger lacks {workload}.{metric}"))?;
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("{workload}.{metric} has no value"))?;
        let samples: Vec<f64> = m
            .get("samples")
            .map(|s| s.elements().iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default();
        Ok((value, stats::iqr_share(&samples)))
    };
    for workload in manifest.get("workloads").map_or(&[][..], Value::elements) {
        let workload = workload
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without name")?;
        for metric in manifest.get("end_to_end").map_or(&[][..], Value::elements) {
            let name = metric
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = metric
                .get("better")
                .and_then(Value::as_str)
                .unwrap_or("lower");
            let bound = metric
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let (b, spread_b) = field(&before, workload, name)?;
            let (a, spread_a) = field(&after, workload, name)?;
            let (verdict, worse_by) = verdict(b, a, better, bound, spread_b, spread_a);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                report,
                "{workload:<14} {name:<15} {b:>12.4} {a:>12.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
                worse_by * 100.0,
                bound * 100.0,
                spread_b.max(spread_a) * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // failed_share must be 0; any rise is a regression.
        let failed = |doc: &Value| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed_share"))
                .and_then(Value::as_f64)
                .ok_or(format!("ledger lacks {workload}.failed_share"))
        };
        let (b, a) = (failed(&before)?, failed(&after)?);
        regressed |= a > b;
        let _ = writeln!(
            report,
            "{workload:<14} {:<15} {b:>12.4} {a:>12.4} {:>9} {:>7} {:>8}  {}",
            "failed_share",
            "",
            "0",
            "",
            if a > b { "REGRESSED" } else { "within" }
        );
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_valid_and_within_the_limits() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("workloads").unwrap().elements().len(), 4);
        for w in doc.get("workloads").unwrap().elements() {
            assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
        }
        let e2e = doc.get("end_to_end").unwrap().elements();
        assert!(e2e
            .iter()
            .any(|m| m.get("name").unwrap().as_str() == Some("setup_s")));
        for m in e2e {
            assert!(m.get("bound").unwrap().as_f64().unwrap() <= 0.25);
        }
        assert!(doc.get("per_layer").unwrap().elements().len() <= 128);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 10, 0, &[("a.b".to_owned(), 1.25, "ms")]);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(10.0));
        let metric = doc.get("metrics").unwrap().get("a.b").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Verdict::*;
        assert_eq!(verdict(100.0, 95.0, "higher", 0.1, 0.0, 0.0).0, Within);
        assert_eq!(verdict(100.0, 85.0, "higher", 0.1, 0.0, 0.0).0, Regressed);
        assert_eq!(verdict(100.0, 120.0, "higher", 0.1, 0.0, 0.0).0, Within);
        assert_eq!(verdict(2.0, 2.3, "lower", 0.1, 0.01, 0.02).0, Regressed);
        assert_eq!(verdict(2.0, 1.0, "lower", 0.1, 0.01, 0.02).0, Within);
        assert_eq!(verdict(2.0, 2.3, "lower", 0.1, 0.2, 0.02).0, Unresolved);
        let (_, worse_by) = verdict(2.0, 2.3, "lower", 0.1, 0.0, 0.0);
        assert!((worse_by - 0.15).abs() < 1e-12);
    }
}
