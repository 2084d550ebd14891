//! The fuzz loop: derive pair specs from one root seed, run each pair
//! through the differential oracle, and auto-minimize anything that
//! diverges.

use std::collections::BTreeMap;

use td_ir::parse_module;
use td_modelgen::{
    generate_payload, generate_schedule_text, payload_op_names, PayloadOptions, ScheduleOptions,
};
use td_support::metrics;
use td_support::rng::{derive_seed, Xoshiro256pp};

use crate::minimize::{bisect_schedule, shrink_pair, Shrunk};
use crate::oracle::{
    differential, differential_failure, fresh_context, single_job_agreement, undo_equivalence,
    Outcome, Pair,
};

/// Environment variable overriding the root fuzz seed.
pub const SEED_ENV: &str = "TD_FUZZ_SEED";
/// Environment variable overriding the number of pairs per run.
pub const BUDGET_ENV: &str = "TD_FUZZ_BUDGET";
/// The default root seed (used by CI so runs are comparable).
pub const DEFAULT_SEED: u64 = 0x7D5E_CA57_F022_2026;

/// Knobs of one fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Root seed; every pair seed derives from it.
    pub seed: u64,
    /// Number of (schedule, payload) pairs to generate and check.
    pub budget: usize,
    /// Upper bound on the payload size knob (segments past the skeleton).
    pub max_payload_size: u32,
    /// Upper bound on the schedule steps knob.
    pub max_schedule_steps: u32,
    /// How many of the generated pairs also get the undo-log equivalence
    /// sweep ([`undo_equivalence`]): every rolled-back run against a fresh
    /// run of its committed steps, clean and with a fault injected at
    /// every step index. The sweep costs up to 2·(steps+1) extra
    /// interpreter runs per pair, so it covers a prefix of the run rather
    /// than every pair.
    pub undo_sweep: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: DEFAULT_SEED,
            budget: 200,
            max_payload_size: 20,
            max_schedule_steps: 10,
            undo_sweep: 64,
        }
    }
}

impl FuzzConfig {
    /// Defaults overridden by [`SEED_ENV`] and [`BUDGET_ENV`].
    pub fn from_env() -> Self {
        let mut config = FuzzConfig::default();
        if let Ok(seed) = std::env::var(SEED_ENV) {
            if let Ok(seed) = seed.trim().parse() {
                config.seed = seed;
            }
        }
        if let Ok(budget) = std::env::var(BUDGET_ENV) {
            if let Ok(budget) = budget.trim().parse() {
                config.budget = budget;
            }
        }
        config
    }
}

/// The knobs that fully determine one generated pair.
///
/// `build` is a pure function of this struct — which is what lets the
/// minimizer shrink by rebuilding at smaller knob values and lets anyone
/// reproduce a reported case from three numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairSpec {
    /// Seed for both the payload and (derived) the schedule generator.
    pub seed: u64,
    /// Payload size knob.
    pub payload_size: u32,
    /// Schedule steps knob.
    pub schedule_steps: u32,
}

impl PairSpec {
    /// Generate the pair plus the payload's op-name occurrence counts.
    pub fn build_with_coverage(&self) -> (Pair, BTreeMap<String, u64>) {
        let (payload, names, counts) = self.payload();
        (Pair::new(payload, self.schedule(names, 0)), counts)
    }

    /// Generate just the pair.
    pub fn build(&self) -> Pair {
        self.build_with_coverage().0
    }

    /// The spec's payload group: its payload with [`GROUP_SCHEDULES`]
    /// schedules generated against it, the pair's own schedule first.
    pub fn build_group(&self) -> Vec<Pair> {
        let (payload, names, _) = self.payload();
        (0..GROUP_SCHEDULES as u64)
            .map(|variant| Pair::new(payload.clone(), self.schedule(names.clone(), variant)))
            .collect()
    }

    /// The generated payload's text, the op names schedules target, and
    /// its op-name occurrence counts.
    fn payload(&self) -> (String, Vec<String>, BTreeMap<String, u64>) {
        let mut ctx = fresh_context();
        let module = generate_payload(
            &mut ctx,
            &PayloadOptions::new(self.seed).with_size(self.payload_size),
        );
        let mut counts = BTreeMap::new();
        for &op in &ctx.walk_nested(module) {
            *counts
                .entry(ctx.op(op).name.as_str().to_owned())
                .or_insert(0) += 1;
        }
        let names = payload_op_names(&ctx, module);
        (td_ir::print_op(&ctx, module), names, counts)
    }

    /// Schedule number `variant` generated against a payload with op
    /// `names` (variant 0 is the pair's own).
    fn schedule(&self, names: Vec<String>, variant: u64) -> String {
        generate_schedule_text(
            &ScheduleOptions::new(derive_seed(self.seed, 0x5ced + variant), names)
                .with_steps(self.schedule_steps),
        )
    }

    /// The same spec with different size knobs (for shrinking).
    pub fn resized(&self, payload_size: u32, schedule_steps: u32) -> PairSpec {
        PairSpec {
            seed: self.seed,
            payload_size,
            schedule_steps,
        }
    }
}

/// The specs a config expands to, in deterministic order.
pub fn pair_specs(config: &FuzzConfig) -> Vec<PairSpec> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(config.seed, 0xd1ff_597e));
    (0..config.budget)
        .map(|index| PairSpec {
            seed: derive_seed(config.seed, index as u64),
            payload_size: rng.range_usize(0, config.max_payload_size as usize) as u32,
            schedule_steps: rng.range_usize(2, config.max_schedule_steps as usize) as u32,
        })
        .collect()
}

/// Schedules generated against each payload of a payload group.
pub const GROUP_SCHEDULES: usize = 4;

/// One payload group per spec of `config` ([`PairSpec::build_group`]),
/// flattened group by group: a batch of them carries every payload text
/// several times, so the engine runs its jobs on a shared parsed payload.
/// Some groups fail setup on purpose, so reuse also follows every kind of
/// setup failure: in two of every eight the last schedule names a missing
/// entry, in one it is cut short and does not parse, and in one the
/// payload itself is cut short.
pub fn group_pairs(config: &FuzzConfig) -> Vec<Pair> {
    let mut pairs = Vec::with_capacity(config.budget * GROUP_SCHEDULES);
    for (group, spec) in pair_specs(config).iter().enumerate() {
        let mut members = spec.build_group();
        let last = members.last_mut().expect("a group has schedules");
        match group % 8 {
            1 | 5 => last.entry = "missing".to_owned(),
            3 => last.schedule.truncate(last.schedule.len() / 2),
            7 => {
                for member in &mut members {
                    member.payload.truncate(member.payload.len() / 2);
                }
            }
            _ => {}
        }
        pairs.extend(members);
    }
    pairs
}

/// Aggregate results of [`run_groups`].
#[derive(Clone, Debug, Default)]
pub struct GroupReport {
    /// Payload groups generated.
    pub groups: usize,
    /// Pairs across all groups.
    pub pairs: usize,
    /// How the pairs' reference runs ended (setup errors are made on
    /// purpose here, see [`group_pairs`]).
    pub outcomes: OutcomeCounts,
    /// Payload parses across the differential oracle's engine modes.
    pub payload_parses: u64,
    /// Jobs those modes ran rather than answered from the cache: without
    /// reuse, every one of them parses its payload.
    pub engine_misses: u64,
    /// Every disagreement: a differential mode against `direct/always`,
    /// or a batch job against the same job run alone.
    pub divergences: Vec<String>,
}

impl GroupReport {
    /// Human-readable run summary.
    pub fn summary(&self) -> String {
        format!(
            "fuzz groups: {} groups of {GROUP_SCHEDULES} ({} pairs) | {} | engine payload parses {} for {} misses | divergences {}\n",
            self.groups,
            self.pairs,
            self.outcomes,
            self.payload_parses,
            self.engine_misses,
            self.divergences.len()
        )
    }
}

/// The engine's payload-parse and job counters on this thread (the engine
/// merges its workers' counters into the caller's).
fn engine_counters() -> (u64, u64) {
    let metrics = metrics::snapshot();
    let count = |name| metrics.counter_value(name).unwrap_or(0);
    (count("sched.payload_parses"), count("sched.jobs"))
}

/// Runs the payload groups of `config` ([`group_pairs`]) through the
/// differential oracle, whose engine modes then run most jobs on a shared
/// parsed payload inside a watermark, and through
/// [`single_job_agreement`] at one and four workers: a batch mixing
/// `TxnMode::Never` jobs with retries, and a batch under an armed
/// silenceable fault plan, must each match the same jobs run alone.
/// Divergences are reported, not shrunk: they may need the whole group.
pub fn run_groups(config: &FuzzConfig) -> GroupReport {
    let pairs = group_pairs(config);
    let mut report = GroupReport {
        groups: config.budget,
        pairs: pairs.len(),
        ..GroupReport::default()
    };
    let (parses_before, jobs_before) = engine_counters();
    let cases = differential(&pairs);
    let (parses_after, jobs_after) = engine_counters();
    let warm_hits = cases.iter().filter(|case| !case.cache_missed_warm).count() as u64;
    report.payload_parses = parses_after - parses_before;
    report.engine_misses = jobs_after - jobs_before - warm_hits;
    for (index, case) in cases.iter().enumerate() {
        report.outcomes.add(case.reference());
        if let Some(description) = case.failure() {
            report.divergences.push(format!(
                "group {} schedule {}: {description}",
                index / GROUP_SCHEDULES,
                index % GROUP_SCHEDULES
            ));
        }
    }
    for workers in [1, 4] {
        report
            .divergences
            .extend(single_job_agreement(&pairs, workers));
    }
    report
}

/// How many pairs' reference (`direct/always`) runs ended each way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// The schedule applied cleanly.
    pub ok: usize,
    /// A silenceable transform failure.
    pub silenceable: usize,
    /// A definite transform failure.
    pub definite: usize,
    /// The pair never reached the interpreter (parse error, missing entry).
    pub setup_errors: usize,
    /// The reference run panicked.
    pub panics: usize,
}

impl OutcomeCounts {
    /// Counts one reference outcome.
    pub fn add(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok { .. } => self.ok += 1,
            Outcome::Transform {
                silenceable: true, ..
            } => self.silenceable += 1,
            Outcome::Transform {
                silenceable: false, ..
            } => self.definite += 1,
            Outcome::Setup { .. } | Outcome::RoundTrip { .. } => self.setup_errors += 1,
            Outcome::Panic { .. } => self.panics += 1,
        }
    }
}

impl std::fmt::Display for OutcomeCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ok {} | silenceable {} | definite {} | setup {} | panic {}",
            self.ok, self.silenceable, self.definite, self.setup_errors, self.panics
        )
    }
}

/// One diverging pair, shrunk as far as the oracle allows.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the pair in the run.
    pub index: usize,
    /// The original (unshrunk) spec.
    pub spec: PairSpec,
    /// The oracle's description of the disagreement.
    pub description: String,
    /// The minimized still-diverging pair.
    pub minimized: Pair,
    /// Final `(payload size, schedule steps)` knobs after shrinking.
    pub minimized_knobs: (u32, u32),
    /// Whether schedule bisection shortened the script further.
    pub bisected: bool,
    /// Predicate evaluations the shrink spent.
    pub probes: usize,
}

/// Aggregate results of one fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Pairs generated and checked.
    pub pairs: usize,
    /// How the pairs' reference runs ended (a setup error here is a
    /// generator bug).
    pub outcomes: OutcomeCounts,
    /// Pairs additionally swept for rollback exactness.
    pub undo_checked: usize,
    /// Payload op name -> total occurrences across all generated payloads.
    pub payload_ops: BTreeMap<String, u64>,
    /// Transform op name -> total occurrences across all schedules.
    pub schedule_ops: BTreeMap<String, u64>,
    /// Diverging pairs, shrunk.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Dialect prefix -> op occurrences, folded from [`Self::payload_ops`].
    pub fn dialect_coverage(&self) -> BTreeMap<String, u64> {
        let mut dialects = BTreeMap::new();
        for (name, count) in &self.payload_ops {
            let prefix = name.split('.').next().unwrap_or(name);
            *dialects.entry(prefix.to_owned()).or_insert(0) += count;
        }
        dialects
    }

    /// Human-readable run summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "fuzz: {} pairs | {} | undo-swept {} | divergences {}\n",
            self.pairs,
            self.outcomes,
            self.undo_checked,
            self.divergences.len()
        );
        out.push_str("payload dialect coverage:");
        for (dialect, count) in self.dialect_coverage() {
            out.push_str(&format!(" {dialect}={count}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "distinct payload ops: {} | distinct schedule ops: {}\n",
            self.payload_ops.len(),
            self.schedule_ops.len()
        ));
        out
    }
}

fn count_schedule_ops(schedule: &str, into: &mut BTreeMap<String, u64>) {
    let mut ctx = fresh_context();
    if let Ok(module) = parse_module(&mut ctx, schedule) {
        for &op in &ctx.walk_nested(module) {
            let name = ctx.op(op).name.as_str();
            if name.starts_with("transform.") {
                *into.entry(name.to_owned()).or_insert(0) += 1;
            }
        }
    }
}

/// Generate `config.budget` pairs, run the differential oracle over all of
/// them, and shrink every divergence.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let specs = pair_specs(config);
    let mut report = FuzzReport {
        pairs: specs.len(),
        ..FuzzReport::default()
    };

    let mut pairs = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (pair, counts) = spec.build_with_coverage();
        for (name, count) in counts {
            *report.payload_ops.entry(name).or_insert(0) += count;
        }
        count_schedule_ops(&pair.schedule, &mut report.schedule_ops);
        pairs.push(pair);
    }

    let case_reports = differential(&pairs);
    for (index, case) in case_reports.iter().enumerate() {
        report.outcomes.add(case.reference());
        if let Some(description) = case.failure() {
            report
                .divergences
                .push(shrink_divergence(index, specs[index], description));
        }
    }

    // Undo-log equivalence sweep over a prefix of the run: a rolled-back
    // step must be indistinguishable from one that never ran, clean and
    // at every injected fault point. Shrinking is gated on the *undo*
    // predicate — these divergences are invisible to the differential
    // oracle (all its modes roll back the same way).
    for (index, pair) in pairs.iter().take(config.undo_sweep).enumerate() {
        report.undo_checked += 1;
        if let Some(description) = undo_equivalence(pair) {
            report.divergences.push(shrink_divergence_with(
                index,
                specs[index],
                format!("undo-equivalence: {description}"),
                &|pair| undo_equivalence(pair).is_some(),
            ));
        }
    }
    report
}

/// Shrink one diverging spec: knob shrinking first, then schedule
/// bisection, both gated on the single-pair differential still failing.
pub fn shrink_divergence(index: usize, spec: PairSpec, description: String) -> Divergence {
    shrink_divergence_with(index, spec, description, &|pair| {
        differential_failure(pair).is_some()
    })
}

/// [`shrink_divergence`] with an explicit still-failing predicate (the
/// undo-equivalence sweep shrinks against its own oracle).
pub fn shrink_divergence_with(
    index: usize,
    spec: PairSpec,
    description: String,
    still_fails: &dyn Fn(&Pair) -> bool,
) -> Divergence {
    let build = |size: u32, steps: u32| spec.resized(size, steps).build();
    let shrunk = shrink_pair(
        &build,
        (spec.payload_size, spec.schedule_steps),
        still_fails,
    );
    let (mut minimized, minimized_knobs, probes) = match shrunk {
        Some(Shrunk {
            pair,
            payload_size,
            schedule_steps,
            probes,
        }) => (pair, (payload_size, schedule_steps), probes),
        // The failure did not reproduce in isolation (e.g. it needed the
        // whole batch); keep the original pair as the repro.
        None => (spec.build(), (spec.payload_size, spec.schedule_steps), 1),
    };
    let mut bisected = false;
    if let Some(shorter) = bisect_schedule(&minimized, still_fails) {
        minimized = shorter;
        bisected = true;
    }
    Divergence {
        index,
        spec,
        description,
        minimized,
        minimized_knobs,
        bisected,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::fault;

    #[test]
    fn specs_are_deterministic_and_distinct() {
        let config = FuzzConfig {
            budget: 16,
            ..FuzzConfig::default()
        };
        let a = pair_specs(&config);
        let b = pair_specs(&config);
        assert_eq!(a, b);
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 16, "pair seeds must not collide");
        assert_eq!(a[3].build(), a[3].build(), "build must be pure");
    }

    #[test]
    fn a_small_run_has_no_divergences() {
        let _guard = fault::test_guard();
        let config = FuzzConfig {
            budget: 12,
            max_payload_size: 8,
            max_schedule_steps: 8,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config);
        assert_eq!(report.pairs, 12);
        assert!(
            report.divergences.is_empty(),
            "{}",
            report
                .divergences
                .iter()
                .map(|d| d.description.clone())
                .collect::<Vec<_>>()
                .join("\n---\n")
        );
        let outcomes = report.outcomes;
        assert_eq!(outcomes.setup_errors, 0, "generators must emit valid pairs");
        assert_eq!(outcomes.panics, 0);
        assert!(outcomes.ok + outcomes.silenceable + outcomes.definite == 12);
        assert!(!report.payload_ops.is_empty());
        assert!(!report.schedule_ops.is_empty());
    }
}
