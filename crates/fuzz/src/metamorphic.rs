//! A metamorphic family for `transform.alternatives`: a branch that
//! mutates the payload and then fails must leave no trace.
//!
//! For a generated payload, a single-loop target in it, and loop
//! transforms `T` and `U`, with `doomed` a match of an op that is never
//! there:
//!
//! * `alternatives({T; doomed}, {})` ≡ the empty schedule, and
//! * `alternatives({T; doomed}, {U})` ≡ `U`.
//!
//! The right-hand sides contain no `alternatives` and run under
//! [`TxnMode::Never`], so the reference executes neither the construct
//! under test nor the undo log behind it. The left-hand sides run through
//! the direct interpreter under both transaction modes and through the
//! engine at one and four workers.
//!
//! The differential oracle cannot see this class of bug: every mode runs
//! the same `alternatives`, so a branch that leaks its mutations leaks
//! them identically everywhere. The emitter is deliberately separate from
//! `td_modelgen::generate_schedule_text`, whose per-seed output other
//! corpora are pinned to.

use td_modelgen::{generate_payload, PayloadOptions};
use td_support::rng::{derive_seed, Xoshiro256pp};
use td_transform::TxnMode;

use crate::oracle::{fresh_context, oracle_engine, run_direct, run_engine, Outcome, Pair};

/// Seeds a CI run of the family covers.
pub const SEEDS: usize = 200;

/// The loop transforms `T` and `U` are drawn from. `{h}` is the operand
/// handle and `{n}` a suffix keeping result names distinct in one script.
const LOOP_TRANSFORMS: [&str; 6] = [
    r#"%tiles{n}, %points{n} = "transform.loop.tile"({h}) {tile_sizes = [2]} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"#,
    r#"%unrolled{n} = "transform.loop.unroll"({h}) {factor = 2} : (!transform.any_op) -> !transform.any_op"#,
    r#"%main{n}, %last{n} = "transform.loop.peel"({h}) : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"#,
    r#"%main{n}, %rest{n} = "transform.loop.split"({h}) {div_by = 2} : (!transform.any_op) -> (!transform.any_op, !transform.any_op)"#,
    r#"%swapped{n} = "transform.loop.interchange"({h}) {permutation = [1, 0]} : (!transform.any_op) -> !transform.any_op"#,
    r#"%hoisted{n} = "transform.loop.hoist"({h}) : (!transform.any_op) -> !transform.any_op"#,
];

fn transform(index: usize, handle: &str, suffix: &str) -> String {
    LOOP_TRANSFORMS[index]
        .replace("{h}", handle)
        .replace("{n}", suffix)
}

/// One member of the family: everything below is a pure function of it.
#[derive(Clone, Debug)]
struct Case {
    payload: String,
    /// Which `scf.for` of the payload is the target (`first` / `last`).
    select: &'static str,
    /// Indices into [`LOOP_TRANSFORMS`].
    t: usize,
    u: usize,
}

impl Case {
    fn generate(seed: u64) -> Case {
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0xa17e_2a71));
        let mut ctx = fresh_context();
        let size = rng.range_usize(0, 8) as u32;
        let module = generate_payload(&mut ctx, &PayloadOptions::new(seed).with_size(size));
        Case {
            payload: td_ir::print_op(&ctx, module),
            select: ["first", "last"][rng.range_usize(0, 2)],
            t: rng.range_usize(0, LOOP_TRANSFORMS.len()),
            u: rng.range_usize(0, LOOP_TRANSFORMS.len()),
        }
    }

    /// A schedule that matches the target as `%target` and then runs
    /// `steps`.
    fn pair(&self, steps: &str) -> Pair {
        let select = self.select;
        Pair::new(
            self.payload.clone(),
            format!(
                r#"module {{
  transform.named_sequence @main(%root: !transform.any_op) {{
    %target = "transform.match_op"(%root) {{name = "scf.for", select = "{select}"}} : (!transform.any_op) -> !transform.any_op
{steps}  }}
}}
"#
            ),
        )
    }

    /// `alternatives` on the target: a first branch that runs `T` and
    /// then fails, and a second branch that runs `fallback` (empty: just
    /// the yield).
    fn alternatives(&self, fallback: &str) -> Pair {
        let t = transform(self.t, "%arg0", "0");
        self.pair(&format!(
            r#"    "transform.alternatives"(%target) ({{
    ^bb0(%arg0: !transform.any_op):
      {t}
      %doomed = "transform.match_op"(%root) {{name = "fuzz.absent", select = "first"}} : (!transform.any_op) -> !transform.any_op
      "transform.yield"() : () -> ()
    }}, {{
    ^bb1(%arg1: !transform.any_op):
      {fallback}"transform.yield"() : () -> ()
    }}) : (!transform.any_op) -> ()
"#
        ))
    }
}

/// What `alternatives({T; doomed}, {fallback})` must produce, given what
/// `T` and `fallback` produce on their own on the untouched payload.
fn expected(t_alone: &Outcome, fallback_alone: &Outcome) -> Outcome {
    match (t_alone, fallback_alone) {
        // A definite error in the first branch propagates as it is.
        (
            Outcome::Transform {
                silenceable: false, ..
            },
            _,
        ) => t_alone.clone(),
        // Otherwise the first branch fails silenceably (in `T` or at
        // `doomed`) and the second decides; if that fails silenceably
        // too, the construct reports that it ran out of branches.
        (
            _,
            Outcome::Transform {
                silenceable: true, ..
            },
        ) => Outcome::Transform {
            silenceable: true,
            message: "all alternatives failed".to_owned(),
        },
        _ => fallback_alone.clone(),
    }
}

/// Result of one sweep of the family.
#[derive(Clone, Debug, Default)]
pub struct FamilyReport {
    /// Seeds swept.
    pub cases: usize,
    /// Cases whose first branch really mutated the payload before it
    /// failed (`T` alone changed the print) — the family is vacuous
    /// without them.
    pub mutated_then_failed: usize,
    /// (relation, mode) comparisons made.
    pub checks: usize,
    /// Violated relations, one description each.
    pub violations: Vec<String>,
}

impl FamilyReport {
    /// `Err` with a description if any relation was violated, or if fewer
    /// than a quarter of the first branches mutated before failing.
    pub fn verdict(&self) -> Result<(), String> {
        if !self.violations.is_empty() {
            return Err(format!(
                "{} metamorphic violation(s):\n{}",
                self.violations.len(),
                self.violations.join("\n---\n")
            ));
        }
        if self.mutated_then_failed * 4 < self.cases {
            return Err(format!(
                "too few first branches mutate before failing for the family to mean much: {self:?}"
            ));
        }
        Ok(())
    }
}

/// Sweeps `seeds` members of the family derived from `root_seed`.
pub fn alternatives_family(root_seed: u64, seeds: usize) -> FamilyReport {
    let mut report = FamilyReport {
        cases: seeds,
        ..FamilyReport::default()
    };
    // (seed, relation, what the left-hand side must produce), in the
    // order of `lefts`.
    let mut wanted: Vec<(u64, &'static str, Outcome)> = Vec::with_capacity(2 * seeds);
    let mut lefts: Vec<Pair> = Vec::with_capacity(2 * seeds);
    for index in 0..seeds {
        let seed = derive_seed(root_seed, index as u64);
        let case = Case::generate(seed);
        let reference = |steps: &str| run_direct(&case.pair(steps), TxnMode::Never);
        let identity = reference("");
        if !identity.is_ok() {
            report.violations.push(format!(
                "seed {seed:#x}: the target match alone does not apply: {}",
                identity.brief()
            ));
            continue;
        }
        let t_alone = reference(&format!("    {}\n", transform(case.t, "%target", "")));
        let u_alone = reference(&format!("    {}\n", transform(case.u, "%target", "")));
        if t_alone.is_ok() && t_alone != identity {
            report.mutated_then_failed += 1;
        }
        wanted.push((
            seed,
            "alternatives({T; doomed}, {}) == identity",
            expected(&t_alone, &identity),
        ));
        lefts.push(case.alternatives(""));
        wanted.push((
            seed,
            "alternatives({T; doomed}, {U}) == U",
            expected(&t_alone, &u_alone),
        ));
        lefts.push(case.alternatives(&format!("{}\n      ", transform(case.u, "%arg1", "1"))));
    }

    let direct = |txn| lefts.iter().map(|pair| run_direct(pair, txn)).collect();
    let modes: [(&str, Vec<Outcome>); 4] = [
        ("direct/always", direct(TxnMode::Always)),
        ("direct/never", direct(TxnMode::Never)),
        (
            "engine/w1",
            run_engine(&lefts, oracle_engine(1).without_cache()).outcomes,
        ),
        (
            "engine/w4",
            run_engine(&lefts, oracle_engine(4).without_cache()).outcomes,
        ),
    ];
    for (mode, outcomes) in &modes {
        for (((seed, relation, want), got), left) in wanted.iter().zip(outcomes).zip(&lefts) {
            report.checks += 1;
            if got != want {
                report.violations.push(format!(
                    "seed {seed:#x}, {mode}: {relation} violated\n  want: {}\n  got:  {}\n--- payload ---\n{}--- schedule ---\n{}",
                    want.brief(),
                    got.brief(),
                    left.payload,
                    left.schedule
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_support::fault;

    #[test]
    fn a_small_sweep_holds_and_is_not_vacuous() {
        let _guard = fault::test_guard();
        let report = alternatives_family(crate::DEFAULT_SEED, 24);
        report.verdict().unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(report.checks, 24 * 2 * 4);
    }

    #[test]
    fn expected_follows_the_constructs_error_model() {
        let ok = Outcome::Ok {
            text: "module {\n}\n".to_owned(),
            fingerprint: 1,
            structural: 2,
        };
        let silenceable = Outcome::Transform {
            silenceable: true,
            message: "no match".to_owned(),
        };
        let definite = Outcome::Transform {
            silenceable: false,
            message: "bad".to_owned(),
        };
        assert_eq!(expected(&ok, &ok), ok);
        assert_eq!(expected(&silenceable, &ok), ok);
        assert_eq!(expected(&definite, &ok), definite);
        assert_eq!(expected(&ok, &definite), definite);
        let Outcome::Transform {
            silenceable: true,
            message,
        } = expected(&ok, &silenceable)
        else {
            panic!("a silenceable fallback exhausts the alternatives");
        };
        assert_eq!(message, "all alternatives failed");
    }
}
