//! CI smoke check for the generative differential fuzzer. Five gates:
//!
//! 1. **Zero divergences**: a fixed-seed fuzz run (default 200 pairs;
//!    `TD_FUZZ_SEED` / `TD_FUZZ_BUDGET` override) pushes every generated
//!    (schedule, payload) pair through all six oracle modes — direct,
//!    engine 1w/4w, journal on, cache cold/warm — and every mode must
//!    agree byte-for-byte. A prefix of the run additionally gets the
//!    undo-log equivalence sweep: clean and with a silenceable fault
//!    injected at every step index in turn, every rolled-back run must
//!    print byte-identically to a fresh run of just its committed steps
//!    and restore the pre-step fingerprint exactly, in context.
//! 2. **Corpus replay**: the committed regression corpus under
//!    `tests/golden/fuzz/` (or `TD_FUZZ_CORPUS`) replays clean, with at
//!    least the five committed entries present.
//! 3. **Minimizer end-to-end**: a divergence deliberately injected with a
//!    `TD_FAULT`-style silenceable plan on `transform.annotate` is caught
//!    by the oracle, auto-minimized (knob shrinking + schedule
//!    bisection), written out in corpus format, reloaded, and shown to
//!    still reproduce — proving a real divergence would land as a
//!    replayable committed repro.
//! 4. **`alternatives` leaves no trace**: the metamorphic family
//!    `alternatives({T; doomed}, {})` ≡ identity and
//!    `alternatives({T; doomed}, {U})` ≡ `U` holds on 200 seeds, under
//!    both transaction modes and through the engine at 1 and 4 workers.
//! 5. **Shared payloads**: as many payload groups as gate 1 has pairs —
//!    one generated payload with four generated schedules each, setup
//!    failures included — go through all six modes, so the engine runs
//!    them on a parsed payload reused inside an undo-log watermark, and
//!    must agree with `direct/always`; a batch mixing `TxnMode::Never`
//!    jobs with retries, and one under an armed `silenceable@step=1` plan,
//!    must match the same jobs run alone, at 1 and 4 workers. The engine
//!    must have parsed fewer payloads than it ran jobs.
//!
//! ```text
//! cargo run --release -p td-bench --bin fuzz_smoke
//! ```

use std::time::Instant;

use td_fuzz::{corpus, metamorphic, minimize, oracle, FuzzConfig, Pair};
use td_support::fault::{self, FaultPlan};
use td_transform::TxnMode;

const ANNOTATE_FAULT: &str = "silenceable@transform=transform.annotate";

/// True when the pair is clean unarmed but fails under the injected
/// fault — the single-mode failure the differential oracle reports as a
/// divergence.
fn diverges_under_fault(pair: &Pair) -> bool {
    fault::set_thread_plan(None);
    let clean = oracle::run_direct(pair, TxnMode::Always);
    fault::set_thread_plan(Some(FaultPlan::parse(ANNOTATE_FAULT).expect("plan parses")));
    fault::reset_counters();
    let faulted = oracle::run_direct(pair, TxnMode::Always);
    fault::set_thread_plan(None);
    clean.is_ok() && faulted != clean
}

fn injected_divergence_gate() {
    // Scan fixed-seed specs for a pair that is clean in every mode but
    // trips the armed fault (i.e. its schedule reaches an annotate step).
    let scan = FuzzConfig {
        budget: 64,
        max_payload_size: 6,
        max_schedule_steps: 8,
        ..FuzzConfig::default()
    };
    let spec = td_fuzz::pair_specs(&scan)
        .into_iter()
        .find(|spec| {
            let pair = spec.build();
            diverges_under_fault(&pair) && oracle::differential_failure(&pair).is_none()
        })
        .expect("some generated schedule executes transform.annotate cleanly");
    let original = spec.build();

    // Auto-minimize while the injected failure keeps reproducing.
    let shrunk = minimize::shrink_pair(
        &|size, steps| spec.resized(size, steps).build(),
        (spec.payload_size, spec.schedule_steps),
        &diverges_under_fault,
    )
    .expect("injected divergence must reproduce at the starting knobs");

    // Schedule-level bisection under the armed plan (the bisector probes
    // prefixes of the script; the predicate re-arms for its own checks).
    fault::set_thread_plan(Some(FaultPlan::parse(ANNOTATE_FAULT).expect("plan parses")));
    fault::reset_counters();
    let bisected = minimize::bisect_schedule(&shrunk.pair, &diverges_under_fault);
    fault::set_thread_plan(None);
    let was_bisected = bisected.is_some();
    let minimized = bisected.unwrap_or_else(|| shrunk.pair.clone());

    assert!(
        shrunk.payload_size <= spec.payload_size && shrunk.schedule_steps <= spec.schedule_steps,
        "shrinking must not grow the case"
    );
    assert!(
        minimized.schedule.len() <= original.schedule.len(),
        "minimized schedule must not be longer than the original"
    );

    // Land the repro in corpus format, reload it, and re-verify.
    let dir = std::env::temp_dir().join(format!("td-fuzz-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    corpus::write_pair(&dir, "injected-annotate-fault", &minimized).expect("repro writes");
    let reloaded = corpus::load_pairs(&dir).expect("repro reloads");
    assert_eq!(reloaded.len(), 1);
    assert!(
        diverges_under_fault(&reloaded[0].1),
        "reloaded repro must still diverge under the injected fault"
    );
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "fuzz_smoke: injected divergence minimized: knobs ({}, {}) -> ({}, {}), schedule {}B -> {}B (bisected: {}), {} probes, repro replayable",
        spec.payload_size,
        spec.schedule_steps,
        shrunk.payload_size,
        shrunk.schedule_steps,
        original.schedule.len(),
        minimized.schedule.len(),
        bisected_label(was_bisected),
        shrunk.probes
    );
}

fn bisected_label(bisected: bool) -> &'static str {
    if bisected {
        "yes"
    } else {
        "no"
    }
}

fn main() {
    let start = Instant::now();

    // Gate 1: fixed-seed differential fuzz run, zero divergences allowed.
    let config = FuzzConfig::from_env();
    let report = td_fuzz::run_fuzz(&config);
    print!("{}", report.summary());
    assert_eq!(report.pairs, config.budget);
    assert_eq!(
        report.outcomes.setup_errors, 0,
        "generated pairs must parse"
    );
    assert_eq!(
        report.outcomes.panics, 0,
        "no schedule may panic the interpreter"
    );
    assert!(
        report.undo_checked > 0,
        "the undo-log equivalence sweep must cover at least one pair"
    );
    if !report.divergences.is_empty() {
        for d in &report.divergences {
            eprintln!(
                "divergence at pair {} (seed {:#x}, knobs ({}, {})):\n{}\n--- minimized payload ---\n{}\n--- minimized schedule ---\n{}",
                d.index,
                d.spec.seed,
                d.spec.payload_size,
                d.spec.schedule_steps,
                d.description,
                d.minimized.payload,
                d.minimized.schedule
            );
        }
        panic!("fuzz_smoke: {} divergence(s)", report.divergences.len());
    }

    // Gate 2: the committed regression corpus replays clean.
    let dir = corpus::corpus_dir();
    match corpus::replay(&dir) {
        Ok(count) => {
            assert!(
                count >= 5,
                "expected the >=5 committed corpus entries at {}, found {count}",
                dir.display()
            );
            println!("fuzz_smoke: corpus replay ok ({count} entries)");
        }
        Err(err) => panic!("fuzz_smoke: corpus replay failed: {err}"),
    }

    // Gate 3: an injected divergence auto-minimizes to a replayable repro.
    injected_divergence_gate();

    // Gate 4: a failed `alternatives` branch leaves no trace.
    let family = metamorphic::alternatives_family(config.seed, metamorphic::SEEDS);
    family
        .verdict()
        .unwrap_or_else(|why| panic!("fuzz_smoke: {why}"));
    println!(
        "fuzz_smoke: alternatives family ok ({} seeds, {} mutate-then-fail, {} checks, 0 violations)",
        family.cases, family.mutated_then_failed, family.checks
    );

    // Gate 5: shared payloads run by rollback agree with fresh contexts.
    let groups = td_fuzz::run_groups(&config);
    print!("{}", groups.summary());
    if !groups.divergences.is_empty() {
        for divergence in &groups.divergences {
            eprintln!("shared-payload divergence:\n{divergence}");
        }
        panic!(
            "fuzz_smoke: {} shared-payload divergence(s)",
            groups.divergences.len()
        );
    }
    assert_eq!(
        groups.outcomes.panics, 0,
        "no schedule may panic the interpreter"
    );
    assert!(
        groups.payload_parses < groups.engine_misses,
        "the engine never reused a parsed payload"
    );

    println!(
        "fuzz_smoke: PASS ({} pairs, {:.1}s)",
        config.budget,
        start.elapsed().as_secs_f64()
    );
}
