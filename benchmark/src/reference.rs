//! Reference execution: what every job *must* produce, computed at set-up
//! time by routes that share nothing with the engine, the cache or the
//! service — a fresh-context direct [`Interpreter`] with transactions off,
//! and (for the Table 1 models) the pass manager.

use td_sched::JobError;
use td_transform::{InterpEnv, Interpreter, TxnMode};

// The context every job runs in (all payload dialects plus the transform
// dialect — what `EngineConfig::standard` builds per job) and the full pass
// registry, as the fuzz oracle's direct route builds them.
pub use td_fuzz::fresh_context;
pub use td_fuzz::oracle::standard_passes as full_passes;

/// FNV-1a over the parts, with a separator folded in after each part so
/// `["ab", "c"]` and `["a", "bc"]` differ.
pub fn digest(parts: &[&str]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Folds a sequence of digests into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let hex: String = digests.into_iter().map(|d| format!("{d:016x}")).collect();
    digest(&[&hex])
}

/// What a job must produce, reduced to what a result is compared on: the
/// success flag and a digest of the text (the printed module, or the error
/// rendered the way the engine and the service render it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Whether the job succeeds.
    pub ok: bool,
    /// [`digest`] of the output text or the error text.
    pub digest: u64,
    /// Length of that text in bytes.
    pub bytes: usize,
}

impl Expected {
    /// The comparison record of an observed result.
    pub fn of(result: Result<&str, &str>) -> Expected {
        let (ok, text) = match result {
            Ok(text) => (true, text),
            Err(text) => (false, text),
        };
        Expected {
            ok,
            digest: digest(&[text]),
            bytes: text.len(),
        }
    }
}

/// Outcome of one reference run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The schedule applied.
    Ok {
        /// The printed payload.
        text: String,
        /// Transform ops the interpreter executed.
        transforms: usize,
    },
    /// The interpreter reported a failure (the `gen_fail` family).
    Transform {
        /// The diagnostic message.
        message: String,
        /// Silenceable or definite.
        silenceable: bool,
    },
    /// The texts never reached the interpreter.
    Setup(String),
}

impl Outcome {
    /// The comparison record. A transform failure is rendered exactly as
    /// [`JobError`] displays it, which is the text a RESULT frame carries.
    pub fn expected(&self) -> Expected {
        match self {
            Outcome::Ok { text, .. } => Expected::of(Ok(text)),
            Outcome::Transform {
                message,
                silenceable,
            } => Expected::of(Err(&JobError::Transform {
                message: message.clone(),
                silenceable: *silenceable,
            }
            .to_string())),
            Outcome::Setup(message) => Expected::of(Err(message)),
        }
    }
}

/// Runs one job on a direct interpreter: fresh context, payload parsed
/// first and script second (the discipline the engine documents, so printed
/// value names line up), `TxnMode::Never`, no cache, no engine.
pub fn run(script: &str, payload: &str, entry: &str) -> Outcome {
    let mut ctx = fresh_context();
    let payload = match td_ir::parse_module(&mut ctx, payload) {
        Ok(op) => op,
        Err(e) => return Outcome::Setup(format!("payload failed to parse: {}", e.message())),
    };
    let script = match td_ir::parse_module(&mut ctx, script) {
        Ok(op) => op,
        Err(e) => return Outcome::Setup(format!("script failed to parse: {}", e.message())),
    };
    let Some(entry) = ctx.lookup_symbol(script, entry) else {
        return Outcome::Setup(format!("script has no entry sequence named '{entry}'"));
    };
    let passes = full_passes();
    let mut env = InterpEnv::standard();
    env.passes = Some(&passes);
    env.config.txn = TxnMode::Never;
    let mut interp = Interpreter::new(&env);
    match interp.apply_reentrant(&mut ctx, entry, payload) {
        Ok(()) => Outcome::Ok {
            text: td_ir::print_op(&ctx, payload),
            transforms: interp.stats.transforms_executed,
        },
        Err(error) => Outcome::Transform {
            message: error.diagnostic().message().to_owned(),
            silenceable: error.is_silenceable(),
        },
    }
}

/// The Table 1 reference: parse the model text, run `TOSA_PIPELINE` through
/// the pass manager, print.
///
/// # Panics
/// Panics if the model text does not parse or the pipeline fails — the
/// models are generated by the harness, so either is a harness bug.
pub fn run_pass_manager(payload: &str) -> String {
    let mut ctx = fresh_context();
    let module = td_ir::parse_module(&mut ctx, payload).expect("model text parses");
    full_passes()
        .parse_pipeline(td_dialects::passes::TOSA_PIPELINE)
        .expect("pipeline parses")
        .run(&mut ctx, module)
        .expect("pipeline succeeds");
    td_ir::print_op(&ctx, module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));
    }

    #[test]
    fn failure_is_rendered_like_a_job_error() {
        let outcome = Outcome::Transform {
            message: "no match".into(),
            silenceable: true,
        };
        let text = "silenceable transform failure: no match";
        assert_eq!(outcome.expected(), Expected::of(Err(text)));
        assert!(!outcome.expected().ok);
    }
}
