//! Failure bisection: shrink a failing schedule to its shortest failing
//! prefix and emit a minimized repro script.
//!
//! When a schedule fails mid-run (a verifier error, a failed precondition,
//! an invalidated handle), the journal says *which* step failed — but the
//! repro a human needs is the shortest schedule that still triggers the
//! failure. Because every probe re-applies a *prefix* of the schedule to a
//! completely fresh payload (the same re-parse discipline `td-sched` jobs
//! use), prefix failure is monotone in practice: once the failing step and
//! everything it depends on are included, the failure reproduces. The
//! bisector binary-searches that boundary in `O(log n)` probes, then
//! truncates the script to the winning prefix and re-confirms it.
//!
//! The result is returned as a [`BisectOutcome`]; what becomes of it is the
//! caller's business. `td-sched`'s `Engine::bisect` renders it as text for
//! whoever asks about a failed job — nothing bisects a failure unasked —
//! and a caller that wants it in the journal attaches that text as a
//! `bisect` [`td_support::journal::Artifact`].

use crate::interp::{InterpEnv, Interpreter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use td_ir::{Context, OpId};
use td_support::{fault, flight, journal};

/// Result of a successful bisection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BisectOutcome {
    /// Top-level ops in the entry block of the original schedule.
    pub total_steps: usize,
    /// Length of the shortest failing prefix (1-based step count).
    pub failing_prefix: usize,
    /// The original schedule truncated to the failing prefix, printed —
    /// a self-contained repro script.
    pub minimized_script: String,
    /// Interpreter probes spent (full run + binary search + confirmation).
    pub probes: usize,
    /// The failure message of the minimized repro.
    pub message: String,
}

/// Bisection driver state: fresh-context probes over one (script, payload,
/// entry) triple.
struct Bisector<'a, 'e> {
    env: &'a InterpEnv<'e>,
    make_ctx: &'a dyn Fn() -> Context,
    script_src: &'a str,
    payload_src: &'a str,
    entry: &'a str,
    probes: usize,
}

impl Bisector<'_, '_> {
    /// Parses both texts into a fresh context and resolves the entry
    /// symbol. Returns `None` if anything fails to parse or resolve (the
    /// caller treated these texts as runnable, so this means the failure
    /// is not a schedule failure and bisection does not apply).
    fn fresh(&self) -> Option<(Context, OpId, OpId)> {
        let mut ctx = (self.make_ctx)();
        let payload = td_ir::parse_module(&mut ctx, self.payload_src).ok()?;
        let script = td_ir::parse_module(&mut ctx, self.script_src).ok()?;
        let entry = ctx.lookup_symbol(script, self.entry)?;
        Some((ctx, entry, payload))
    }

    /// Applies the first `limit` steps of the schedule to a fresh payload;
    /// returns the failure message, or `None` if the prefix succeeds.
    ///
    /// A panicking transform is contained with `catch_unwind` and bisects
    /// like a definite error — without this, the first probe that reaches
    /// a panicking step would kill the whole bisection. Deterministic
    /// fault-injection counters are reset per probe so an injected fault
    /// (`step=N` clauses in particular) re-fires identically on every
    /// probe and the minimized repro reproduces the original schedule.
    fn probe(&mut self, limit: usize) -> Option<String> {
        self.probes += 1;
        fault::reset_counters();
        let (mut ctx, entry, payload) = self.fresh()?;
        let mut interp = Interpreter::new(self.env);
        // Probes reproduce the failure *on purpose*, O(log n) times; the
        // flight recorder must neither record them as fresh incidents nor
        // burn its dump cap re-dumping the crash being bisected.
        flight::suppressed(|| {
            match catch_unwind(AssertUnwindSafe(|| {
                interp.apply_prefix(&mut ctx, entry, payload, limit)
            })) {
                Ok(result) => result.err().map(|e| e.diagnostic().message().to_owned()),
                Err(panic_payload) => Some(format!(
                    "panicked: {}",
                    fault::panic_text(panic_payload.as_ref())
                )),
            }
        })
    }
}

/// Bisects a failing schedule: finds the shortest prefix of `entry`'s
/// top-level steps that still fails when applied to a fresh parse of
/// `payload_src`, and prints the truncated script as a minimized repro.
///
/// Returns `None` when the failure does not reproduce from the texts (a
/// nondeterministic or environment-dependent failure), when the inputs do
/// not parse, or when the entry block is empty. Probes run with journaling
/// disabled on this thread so the search itself does not pollute the
/// journal being diagnosed; the switch is restored on the way out, also
/// when a panic outside a probe (an injected allocation fault in a parse)
/// unwinds through here to a caller that contains it.
pub fn bisect_schedule_failure(
    env: &InterpEnv<'_>,
    make_ctx: &dyn Fn() -> Context,
    script_src: &str,
    payload_src: &str,
    entry: &str,
) -> Option<BisectOutcome> {
    struct RestoreJournaling(bool);
    impl Drop for RestoreJournaling {
        fn drop(&mut self) {
            journal::set_enabled(self.0);
        }
    }
    let _restore = RestoreJournaling(journal::enabled());
    journal::set_enabled(false);
    bisect_inner(env, make_ctx, script_src, payload_src, entry)
}

fn bisect_inner(
    env: &InterpEnv<'_>,
    make_ctx: &dyn Fn() -> Context,
    script_src: &str,
    payload_src: &str,
    entry: &str,
) -> Option<BisectOutcome> {
    let mut bisector = Bisector {
        env,
        make_ctx,
        script_src,
        payload_src,
        entry,
        probes: 0,
    };

    let total_steps = {
        let (ctx, entry_op, _) = bisector.fresh()?;
        entry_block_ops(&ctx, entry_op)?.len()
    };
    if total_steps == 0 {
        return None;
    }
    // The failure must reproduce on the full schedule, or there is nothing
    // sound to minimize.
    bisector.probe(total_steps)?;

    // Invariant: probe(hi) fails. Find the smallest failing prefix.
    let mut lo = 1usize;
    let mut hi = total_steps;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if bisector.probe(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let failing_prefix = lo;

    // Truncate a fresh parse of the script to the failing prefix and print
    // it. Suffix ops are erased in reverse so uses disappear before defs.
    let minimized_script = {
        let (mut ctx, entry_op, _) = bisector.fresh()?;
        let ops = entry_block_ops(&ctx, entry_op)?;
        for &op in ops.iter().skip(failing_prefix).rev() {
            ctx.erase_op(op);
        }
        let script_root = ctx.parent_op(entry_op).unwrap_or(entry_op);
        td_ir::print_op(&ctx, script_root)
    };

    // Confirm the minimized script still reproduces, end to end.
    let mut confirm = Bisector {
        env,
        make_ctx,
        script_src: &minimized_script,
        payload_src,
        entry,
        probes: 0,
    };
    let message = confirm.probe(failing_prefix)?;
    let probes = bisector.probes + confirm.probes;

    Some(BisectOutcome {
        total_steps,
        failing_prefix,
        minimized_script,
        probes,
        message,
    })
}

/// The top-level ops of the entry sequence's first block.
fn entry_block_ops(ctx: &Context, entry: OpId) -> Option<Vec<OpId>> {
    let region = ctx.op(entry).regions().first().copied()?;
    let block = ctx.region(region).blocks().first().copied()?;
    Some(ctx.block_ops(block).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &str = r#"module {
  func.func @f(%m: memref<256xf32>) {
    %lo = arith.constant 0 : index
    %hi = arith.constant 256 : index
    %st = arith.constant 1 : index
    scf.for %i = %lo to %hi step %st {
      %v = "memref.load"(%m, %i) : (memref<256xf32>, index) -> f32
      "test.use"(%v) : (f32) -> ()
    }
    func.return
  }
}"#;

    /// Step 3 of this 5-step schedule fails (no `nonexistent.op` in the
    /// payload); steps 4-5 are innocent bystanders the repro must drop.
    const FAILING_SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loop) {name = "tagged"} : (!transform.any_op) -> ()
    %missing = "transform.match_op"(%root) {name = "nonexistent.op", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%missing) {name = "never"} : (!transform.any_op) -> ()
    "transform.annotate"(%root) {name = "also_never"} : (!transform.any_op) -> ()
  }
}"#;

    const PASSING_SCRIPT: &str = r#"module {
  transform.named_sequence @main(%root: !transform.any_op) {
    %loop = "transform.match_op"(%root) {name = "scf.for", select = "first"} : (!transform.any_op) -> !transform.any_op
    "transform.annotate"(%loop) {name = "tagged"} : (!transform.any_op) -> ()
  }
}"#;

    fn make_ctx() -> Context {
        let mut ctx = Context::new();
        td_dialects::register_all_dialects(&mut ctx);
        crate::register_transform_dialect(&mut ctx);
        ctx
    }

    #[test]
    fn bisection_finds_shortest_failing_prefix() {
        let env = InterpEnv::standard();
        let outcome = bisect_schedule_failure(&env, &make_ctx, FAILING_SCRIPT, PAYLOAD, "main")
            .expect("failure reproduces and bisects");
        // 5 written steps + the implicit trailing transform.yield.
        assert_eq!(outcome.total_steps, 6);
        assert_eq!(outcome.failing_prefix, 3, "the bad match_op is step 3");
        assert!(
            outcome.message.contains("nonexistent.op"),
            "{}",
            outcome.message
        );
        assert!(!outcome.minimized_script.is_empty());
        assert!(
            outcome.minimized_script.contains("nonexistent.op"),
            "repro keeps the failing step:\n{}",
            outcome.minimized_script
        );
        assert!(
            !outcome.minimized_script.contains("also_never"),
            "repro drops innocent suffix steps:\n{}",
            outcome.minimized_script
        );
        assert!(outcome.probes >= 2);
    }

    #[test]
    fn bisection_tolerates_panicking_transforms() {
        use td_support::fault;
        let env = InterpEnv::standard();
        // Every probe that reaches the annotate step panics; the bisector
        // must contain that and treat it as the failing step.
        fault::set_thread_plan(Some(
            fault::FaultPlan::parse("panic@transform=transform.annotate").unwrap(),
        ));
        fault::set_lane(0);
        let outcome = bisect_schedule_failure(&env, &make_ctx, PASSING_SCRIPT, PAYLOAD, "main");
        fault::set_thread_plan(None);
        let outcome = outcome.expect("a panicking transform bisects like a definite error");
        assert_eq!(outcome.failing_prefix, 2, "annotate is step 2");
        assert!(outcome.message.contains("panicked"), "{}", outcome.message);
        assert!(
            outcome.minimized_script.contains("transform.annotate"),
            "repro keeps the panicking step:\n{}",
            outcome.minimized_script
        );
    }

    #[test]
    fn passing_schedule_does_not_bisect() {
        let env = InterpEnv::standard();
        assert!(
            bisect_schedule_failure(&env, &make_ctx, PASSING_SCRIPT, PAYLOAD, "main").is_none()
        );
    }

    #[test]
    fn unparsable_script_does_not_bisect() {
        let env = InterpEnv::standard();
        assert!(bisect_schedule_failure(&env, &make_ctx, "not mlir", PAYLOAD, "main").is_none());
    }
}
